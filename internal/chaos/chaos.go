// Package chaos assembles fault-injection scenarios for the resilience
// stack: a victim machine (NIC + driver + protection strategy, the same
// assembly internal/bench uses) shares its IOMMU with a misbehaving
// device or an injected pressure source, and each scenario measures how
// goodput and recovery behave with the fault-domain machinery enabled
// versus disabled.
//
// Every scenario runs three variants of the same seeded workload:
//
//	baseline     no attack/pressure — the goodput yardstick
//	resilience   attack/pressure with quarantine + degradation armed
//	unprotected  the same attack with the resilience machinery off
//
// All time is virtual and every input is derived from Config.Seed, so a
// scenario's metrics are bit-deterministic and can be regression-gated
// with cmd/benchdiff (see ci/chaos-baseline.json and `make chaos-smoke`).
package chaos

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/cycles"
	"repro/internal/dmaapi"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// Device IDs: the victim NIC is device 1 (as in internal/bench); the
// misbehaving device sits next to it on the same IOMMU.
const (
	VictimDev iommu.DeviceID = 1
	AttackDev iommu.DeviceID = 2
)

// Config parameterizes one scenario run. Zero fields take defaults.
type Config struct {
	Seed     int64
	WindowMs float64 // simulated window per variant (default 2 ms)
	Cores    int     // victim cores / NIC queues (default 2)
	MsgSize  int     // victim message size (default 1500)
	RingSize int     // NIC descriptor ring depth (default 256)
	System   string  // victim protection strategy (default "strict")
	Costs    *cycles.Costs
	// Policy is the fault-domain policy for the resilient variants; zero
	// fields take scenario-appropriate defaults (scenarios may override).
	Policy resilience.Policy
	// Farm, when non-nil, runs a scenario's three variants as parallel
	// farm tasks. Each variant builds its own engine and machine, so the
	// variants share no state; a nil Farm runs them serially (bench.Farm's
	// nil receiver) with identical results — the merge is in canonical
	// variant order either way.
	Farm *bench.Farm
}

func (c Config) norm() Config {
	if c.WindowMs <= 0 {
		c.WindowMs = 2
	}
	if c.Cores <= 0 {
		c.Cores = 2
	}
	if c.MsgSize <= 0 {
		c.MsgSize = 1500
	}
	if c.RingSize <= 0 {
		c.RingSize = 256
	}
	if c.System == "" {
		c.System = bench.SysLinuxStrict
	}
	if c.Costs == nil {
		c.Costs = cycles.Default()
	}
	return c
}

// chaosPolicy is the default fault-domain policy for chaos windows: the
// bench windows are short (milliseconds), so the bucket is shallow and the
// cool-down brief enough that quarantine AND readmission both happen
// inside the window.
func chaosPolicy() resilience.Policy {
	return resilience.Policy{
		FaultBurst:  32,
		RefillEvery: cycles.FromMicros(5),
		Cooldown:    cycles.FromMicros(200),
		MaxReadmits: -1,
	}
}

// machine is one assembled victim machine plus the shared IOMMU the
// attacker rides on.
type machine struct {
	eng    *sim.Engine
	mem    *mem.Memory
	u      *iommu.IOMMU
	env    *dmaapi.Env
	mapper dmaapi.Mapper
	nic    *nic.NIC
	drv    *netstack.Driver
	obs    *obs.Observer
	sup    *resilience.Supervisor // nil in unprotected variants

	// onSetupDone, when set (by a scenario's arm callback), fires once in
	// proc context when the last queue finishes SetupQueue — the anchor
	// for pressure phases that must not race driver bring-up.
	onSetupDone func(now uint64)
}

// variant selects how one scenario run is armed.
type variant struct {
	// mapperFn overrides the victim's protection strategy construction
	// (nil means bench.NewMapper(cfg.System)).
	mapperFn func(env *dmaapi.Env) (dmaapi.Mapper, error)
	// resilient attaches the fault-domain supervisor.
	resilient bool
	policy    resilience.Policy
	// observe installs the cycle-attribution profiler (needed by
	// scenarios that report resilience.* span cycles).
	observe bool
}

func newMachine(cfg Config, v variant) (*machine, error) {
	eng := sim.NewEngine()
	m := mem.New(2)
	u := iommu.New(eng, m, cfg.Costs)
	// One hardware page-walker, as on real IOMMUs: concurrent misses
	// serialize, which is exactly the shared resource a fault storm
	// exhausts. Applied to every variant so baselines are comparable.
	u.WalkSerialize = true
	var o *obs.Observer
	if v.observe {
		o = obs.New(false)
		eng.SetObserver(o) // must precede Spawn: procs copy the sink
	}
	env := &dmaapi.Env{Eng: eng, Mem: m, IOMMU: u, Costs: cfg.Costs, Dev: VictimDev, Cores: cfg.Cores}
	var mapper dmaapi.Mapper
	var err error
	if v.mapperFn != nil {
		mapper, err = v.mapperFn(env)
	} else {
		mapper, err = bench.NewMapper(cfg.System, env)
	}
	if err != nil {
		return nil, err
	}
	n := nic.New(eng, u, nic.Config{
		Dev: VictimDev, Queues: cfg.Cores, RingSize: cfg.RingSize, MTU: 1500, TSO: true, Costs: cfg.Costs,
	})
	k := mem.NewKmalloc(m, nil)
	drv := netstack.NewDriver(env, mapper, n, k, 2048)
	// The host services IOMMU fault records in interrupt context: ~0.6 us
	// per record (read, log, clear). This is the CPU a fault storm steals
	// until quarantine cuts it off at the root.
	drv.FaultServiceCost = 1500
	mc := &machine{eng: eng, mem: m, u: u, env: env, mapper: mapper, nic: n, drv: drv, obs: o}
	if v.resilient {
		mc.sup = resilience.Attach(u, eng, v.policy)
	}
	return mc, nil
}

// runStats is the victim-side outcome of one variant run.
type runStats struct {
	Gbps     float64
	Frames   uint64
	Bytes    uint64
	Busy     uint64
	SetupErr error // non-nil when queue setup failed (hard pool exhaustion)
	RunErr   error // non-nil when the datapath died mid-run
	Profile  *obs.Profile
}

// runVictim spawns the RX stream workload (bench's runRx shape), lets
// `arm` schedule attack/pressure events, and runs the window.
func (mc *machine) runVictim(cfg Config, window uint64, arm func(*machine)) runStats {
	stats := make([]netstack.RxStats, cfg.Cores)
	var setupErr, runErr error
	var procs []*sim.Proc
	setupsLeft := cfg.Cores
	for c := 0; c < cfg.Cores; c++ {
		c := c
		pr := mc.eng.Spawn(fmt.Sprintf("rx%d", c), c, 0, func(p *sim.Proc) {
			if err := mc.drv.SetupQueue(p, c); err != nil {
				setupErr = err
				return
			}
			setupsLeft--
			if setupsLeft == 0 && mc.onSetupDone != nil {
				mc.onSetupDone(p.Now())
			}
			if err := mc.drv.RunRxStream(p, c, cfg.MsgSize, &stats[c]); err != nil {
				runErr = err
			}
		})
		procs = append(procs, pr)
		src := nic.NewSource(mc.eng, mc.nic.Queue(c), cfg.Costs, cfg.MsgSize, 1500, true)
		src.Start(0)
	}
	if arm != nil {
		arm(mc)
	}
	mc.eng.Run(window)
	rs := runStats{SetupErr: setupErr, RunErr: runErr}
	for i := range stats {
		rs.Bytes += stats[i].Bytes
		rs.Frames += stats[i].Frames
	}
	for _, p := range procs {
		rs.Busy += p.Busy()
	}
	rs.Gbps = cycles.Gbps(rs.Bytes, window)
	if mc.obs != nil {
		pr := mc.obs.Prof.Snapshot()
		pr.TotalBusy = rs.Busy
		rs.Profile = &pr
	}
	mc.eng.Stop()
	mc.mem.Release()
	return rs
}

// metrics flattens the run into the benchdiff-gated metric map.
func (mc *machine) metrics(rs runStats, attackStart uint64) map[string]float64 {
	ms := map[string]float64{
		"gbps":                float64(rs.Gbps),
		"frames":              float64(rs.Frames),
		"faults":              float64(mc.u.FaultCount),
		"blocked_dmas":        float64(mc.u.BlockedDMAs),
		"faultring_overflow":  float64(mc.u.FaultRing().Overflow()),
		"rx_nobuf_drops":      float64(mc.nic.RxNoBufDrops),
		"rx_quarantine_drops": float64(mc.nic.RxQuarantineDrops),
		"invq_timeouts":       float64(mc.u.Queue.Timeouts),
		"invq_recoveries":     float64(mc.u.Queue.Recoveries),
		"backpressure_drops":  float64(mc.drv.BackpressureDrops),
		"faults_serviced":     float64(mc.drv.FaultsServiced),
	}
	st := mc.mapper.Stats()
	ms["degraded_retries"] = float64(st.DegradedRetries)
	ms["degraded_spills"] = float64(st.DegradedSpills)
	ms["backpressure_fails"] = float64(st.BackpressureFails)
	if rs.SetupErr != nil || rs.RunErr != nil {
		ms["datapath_dead"] = 1
	} else {
		ms["datapath_dead"] = 0
	}
	if mc.sup != nil {
		ds := mc.sup.Stats(AttackDev)
		ms["quarantines"] = float64(ds.Quarantines)
		ms["readmits"] = float64(ds.Readmits)
		if ds.Quarantines > 0 && ds.QuarantinedAt >= attackStart {
			ms["time_to_quarantine_us"] = cycles.Micros(ds.QuarantinedAt - attackStart)
		}
	}
	if rs.Profile != nil {
		ms["resilience_cycles"] = float64(rs.Profile.GroupCycles("resilience"))
	}
	return ms
}

// fmtGbps renders a goodput cell.
func fmtGbps(g float64) string { return fmt.Sprintf("%.2f", g) }
