// Package chaos assembles fault-injection scenarios for the resilience
// stack: a victim machine (internal/bench's evaluation machine, running
// bench's RX stream) shares its IOMMU with a misbehaving device or an
// injected pressure source, and each scenario measures how goodput and
// recovery behave with the fault-domain machinery enabled versus
// disabled.
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
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// AttackDev is the misbehaving device. It sits next to the victim NIC,
// bench's device 1, on the same IOMMU.
const AttackDev iommu.DeviceID = 2

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

// machine is bench's evaluation machine plus what chaos adds to it.
type machine struct {
	*bench.Machine
	sup *resilience.Supervisor // nil in unprotected variants

	// onSetupDone, when set (by a scenario's arm callback), fires once in
	// proc context when the last queue finishes SetupQueue — the anchor
	// for pressure phases that must not race driver bring-up.
	onSetupDone func(now uint64)
}

// variant selects how one scenario run is armed.
type variant struct {
	// mapperFn overrides the victim's protection strategy construction
	// (nil keeps bench.NewMachine's mapper for cfg.System).
	mapperFn func(env *dmaapi.Env) (dmaapi.Mapper, error)
	// resilient attaches the fault-domain supervisor.
	resilient bool
	policy    resilience.Policy
	// observe installs the cycle-attribution profiler (needed by
	// scenarios that report resilience.* span cycles).
	observe bool
}

// newMachine builds the victim with bench.NewMachine. The caller tears it
// down.
func newMachine(cfg Config, v variant) (*machine, error) {
	bcfg := bench.DefaultConfig(cfg.System, bench.RX, cfg.Cores, cfg.MsgSize)
	bcfg.RingSize = cfg.RingSize
	bcfg.Costs = cfg.Costs
	if v.observe {
		bcfg.Obs = obs.New(false)
	}
	m, err := bench.NewMachine(bcfg)
	if err != nil {
		return nil, err
	}
	if v.mapperFn != nil {
		// Swap the mapper, and the driver holding it, before any proc
		// spawns. The default copy mapper the squeeze variants replace
		// built host structures only: no simulated memory, no mappings.
		mapper, err := v.mapperFn(m.Env)
		if err != nil {
			m.Teardown()
			return nil, err
		}
		m.Mapper = mapper
		m.Driver = netstack.NewDriver(m.Env, mapper, m.NIC, m.Kmal, 2048)
	}
	// One hardware page-walker, as on real IOMMUs: concurrent misses
	// serialize, which is exactly the shared resource a fault storm
	// exhausts. Applied to every variant so baselines are comparable.
	m.IOMMU.WalkSerialize = true
	// The host services IOMMU fault records in interrupt context: ~0.6 us
	// per record (read, log, clear). This is the CPU a fault storm steals
	// until quarantine cuts it off at the root.
	m.Driver.FaultServiceCost = 1500
	mc := &machine{Machine: m}
	if v.resilient {
		mc.sup = resilience.Attach(m.IOMMU, m.Eng, v.policy)
	}
	return mc, nil
}

// runVictim spawns bench's RX stream workload, lets `arm` schedule
// attack/pressure events, measures the window, and flattens the run into
// the benchdiff-gated metric map; time_to_quarantine_us counts from
// attackStart.
func (mc *machine) runVictim(cfg Config, attackStart uint64, arm func(*machine)) map[string]float64 {
	stats := make([]netstack.RxStats, cfg.Cores)
	setupsLeft := cfg.Cores
	cores := mc.SpawnCores("rx", 0, cfg.Cores, func(p *sim.Proc, c int) error {
		if err := mc.Driver.SetupQueue(p, c); err != nil {
			return err
		}
		setupsLeft--
		if setupsLeft == 0 && mc.onSetupDone != nil {
			mc.onSetupDone(p.Now())
		}
		return mc.Driver.RunRxStream(p, c, cfg.MsgSize, &stats[c])
	}, func(c int) {
		nic.NewSource(mc.Eng, mc.NIC.Queue(c), cfg.Costs, cfg.MsgSize, 1500, true).Start(0)
	})
	if arm != nil {
		arm(mc)
	}
	w := mc.Measure(cfg.WindowMs, cores.Procs)
	var bytes, frames uint64
	for _, s := range stats {
		bytes += s.Bytes
		frames += s.Frames
	}
	ms := map[string]float64{
		"gbps":                cycles.Gbps(bytes, w.Cycles),
		"frames":              float64(frames),
		"faults":              float64(mc.IOMMU.FaultCount),
		"blocked_dmas":        float64(mc.IOMMU.BlockedDMAs),
		"faultring_overflow":  float64(mc.IOMMU.FaultRing().Overflow()),
		"rx_nobuf_drops":      float64(mc.NIC.RxNoBufDrops),
		"rx_quarantine_drops": float64(mc.NIC.RxQuarantineDrops),
		"invq_timeouts":       float64(mc.IOMMU.Queue.Timeouts),
		"invq_recoveries":     float64(mc.IOMMU.Queue.Recoveries),
		"backpressure_drops":  float64(mc.Driver.BackpressureDrops),
		"faults_serviced":     float64(mc.Driver.FaultsServiced),
	}
	st := mc.Mapper.Stats()
	ms["degraded_retries"] = float64(st.DegradedRetries)
	ms["degraded_spills"] = float64(st.DegradedSpills)
	ms["backpressure_fails"] = float64(st.BackpressureFails)
	// A failed queue setup (hard pool exhaustion) or a datapath that died
	// mid-run.
	if cores.Err != nil {
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
	if w.Profile != nil {
		ms["resilience_cycles"] = float64(w.Profile.GroupCycles("resilience"))
	}
	return ms
}

// fmtGbps renders a goodput cell.
func fmtGbps(g float64) string { return fmt.Sprintf("%.2f", g) }
