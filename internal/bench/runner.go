// Package bench assembles complete simulated machines (memory, IOMMU, NIC,
// driver, workload procs) and runs the paper's evaluation workloads,
// producing throughput / CPU / latency / per-packet-breakdown results for
// every protection strategy. The experiment functions regenerate each
// figure of the paper (see DESIGN.md §4 for the index).
package bench

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/dmaapi"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Direction selects the workload.
type Direction int

// Workload directions.
const (
	RX Direction = iota // netperf TCP_STREAM, evaluated machine receives
	TX                  // netperf TCP_STREAM, evaluated machine transmits
	RR                  // netperf TCP_RR request/response
)

func (d Direction) String() string {
	switch d {
	case RX:
		return "RX"
	case TX:
		return "TX"
	case RR:
		return "RR"
	}
	return "?"
}

// Config describes one benchmark run.
type Config struct {
	System    string
	Direction Direction
	Cores     int
	MsgSize   int
	WindowMs  float64 // simulated duration (default 20 ms)
	RingSize  int     // default 256
	TSO       bool    // default true (set via DefaultConfig)
	MTU       int     // default 1500
	Costs     *cycles.Costs
	// NoHint disables the copy strategy's packet-length copying hint
	// (required for non-network workloads, e.g. storage).
	NoHint bool
	// RemoteBufs places DMA buffers on the far NUMA domain (ablation of
	// the shadow pool's NUMA stickiness).
	RemoteBufs bool
	// Obs, when non-nil, installs the observability layer on the machine's
	// engine: spans feed its profiler (Result.Profile) and, if it records
	// a timeline, its recorder also receives the IOMMU's events
	// (IOMMU.OnEvent) for trace export. Must not be shared across
	// concurrently-running machines.
	Obs *obs.Observer
}

// DefaultConfig fills a Config with the paper's methodology defaults.
func DefaultConfig(system string, dir Direction, cores, msgSize int) Config {
	return Config{
		System:    system,
		Direction: dir,
		Cores:     cores,
		MsgSize:   msgSize,
		WindowMs:  20,
		RingSize:  256,
		TSO:       true,
		MTU:       1500,
		Costs:     cycles.Default(),
	}
}

// Result is the outcome of one run.
type Result struct {
	Config        Config
	Gbps          float64
	CPUPct        float64            // average utilization across the cores used
	PerOp         map[string]float64 // per-DMA-op component times, microseconds
	Ops           uint64             // RX: frames; TX: skbs; RR: transactions
	Messages      uint64
	LatencyUs     float64 // RR only: mean round trip
	LatencyP99Us  float64 // RR only: 99th percentile round trip
	Transactions  uint64  // RR only
	MapperStats   dmaapi.Stats
	PoolBytes     uint64 // copy only: shadow pool footprint
	RxDrops       uint64
	Faults        uint64
	IOTLBHitRate  float64
	Invalidations uint64
	// PoolBytesByClass is PoolBytes per shadow-pool size class (copy
	// only; nil for the other strategies).
	PoolBytesByClass []uint64
	// Profile is the cycle-attribution snapshot (nil unless Config.Obs was
	// set); TotalBusy is the workload procs' summed busy cycles.
	Profile *obs.Profile
}

// Machine bundles one assembled evaluation machine.
type Machine struct {
	Eng    *sim.Engine
	Mem    *mem.Memory
	IOMMU  *iommu.IOMMU
	Env    *dmaapi.Env
	Mapper dmaapi.Mapper
	NIC    *nic.NIC
	Kmal   *mem.Kmalloc
	Driver *netstack.Driver
	Obs    *obs.Observer // nil unless Config.Obs was set
}

// Teardown stops the machine's engine and releases its memory to the
// process-wide chunk free list (mem.Memory.Release). Call it after the
// last read of the machine's memory; the machine is unusable afterwards.
func (m *Machine) Teardown() {
	m.Eng.Stop()
	m.Mem.Release()
}

// NewMachine assembles the evaluated machine for a config.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.Costs == nil {
		cfg.Costs = cycles.Default()
	}
	eng := sim.NewEngine()
	m := mem.New(2) // dual socket, as in the paper
	u := iommu.New(eng, m, cfg.Costs)
	if cfg.Obs != nil {
		// Must precede every Spawn: procs copy the span sink at creation.
		eng.SetObserver(cfg.Obs)
		if cfg.Obs.Rec != nil {
			u.OnEvent = cfg.Obs.Rec.IOMMUEvent
		}
	}
	env := &dmaapi.Env{Eng: eng, Mem: m, IOMMU: u, Costs: cfg.Costs, Dev: 1, Cores: cfg.Cores}
	var mapper dmaapi.Mapper
	var err error
	if cfg.NoHint && cfg.System == SysCopy {
		mapper, err = core.NewShadowMapper(env)
	} else {
		mapper, err = NewMapper(cfg.System, env)
	}
	if err != nil {
		return nil, err
	}
	n := nic.New(eng, u, nic.Config{
		Dev:      1,
		Queues:   cfg.Cores,
		RingSize: cfg.RingSize,
		MTU:      cfg.MTU,
		TSO:      cfg.TSO,
		Costs:    cfg.Costs,
	})
	k := mem.NewKmalloc(m, nil)
	drv := netstack.NewDriver(env, mapper, n, k, 2048)
	drv.RemoteBufs = cfg.RemoteBufs
	return &Machine{Eng: eng, Mem: m, IOMMU: u, Env: env, Mapper: mapper, NIC: n, Kmal: k, Driver: drv, Obs: cfg.Obs}, nil
}

// withDefaults fills the zero fields Run treats as defaults (window,
// ring, MTU and cost model), so equal runs have equal Configs.
func (cfg Config) withDefaults() Config {
	if cfg.WindowMs <= 0 {
		cfg.WindowMs = 20
	}
	if cfg.RingSize == 0 {
		cfg.RingSize = 256
	}
	if cfg.MTU == 0 {
		cfg.MTU = 1500
	}
	if cfg.Costs == nil {
		cfg.Costs = cycles.Default()
	}
	return cfg
}

// Run executes one benchmark configuration.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	mach, err := NewMachine(cfg)
	if err != nil {
		return Result{}, err
	}
	defer mach.Teardown()
	switch cfg.Direction {
	case RX:
		return runRx(mach, cfg)
	case TX:
		return runTx(mach, cfg)
	case RR:
		return runRR(mach, cfg)
	}
	return Result{}, fmt.Errorf("bench: bad direction %v", cfg.Direction)
}

func runRx(mach *Machine, cfg Config) (Result, error) {
	stats := make([]netstack.RxStats, cfg.Cores)
	cores := mach.SpawnCores("rx", 0, cfg.Cores, func(p *sim.Proc, c int) error {
		if err := mach.Driver.SetupQueue(p, c); err != nil {
			return err
		}
		return mach.Driver.RunRxStream(p, c, cfg.MsgSize, &stats[c])
	}, func(c int) {
		nic.NewSource(mach.Eng, mach.NIC.Queue(c), cfg.Costs, cfg.MsgSize, cfg.MTU, true).Start(0)
	})
	return collect(mach, cfg, cores, func(res *Result, window uint64) {
		var bytes uint64
		for _, s := range stats {
			bytes += s.Bytes
			res.Ops += s.Frames
			res.Messages += s.Messages
		}
		res.Gbps = cycles.Gbps(bytes, window)
	})
}

func runTx(mach *Machine, cfg Config) (Result, error) {
	stats := make([]netstack.TxStats, cfg.Cores)
	cores := mach.SpawnCores("tx", 0, cfg.Cores, func(p *sim.Proc, c int) error {
		return mach.Driver.RunTxStream(p, c, cfg.MsgSize, &stats[c])
	}, nil)
	return collect(mach, cfg, cores, func(res *Result, window uint64) {
		var bytes uint64
		for _, s := range stats {
			bytes += s.Bytes
			res.Ops += s.Skbs
			res.Messages += s.Messages
		}
		res.Gbps = cycles.Gbps(bytes, window)
	})
}

func runRR(mach *Machine, cfg Config) (Result, error) {
	var st netstack.RRServerStats
	client := netstack.NewRRClient(mach.Eng, mach.NIC, 0, cfg.Costs, cfg.MsgSize)
	cores := mach.SpawnCores("rr", 0, 1, func(p *sim.Proc, c int) error {
		if err := mach.Driver.SetupQueue(p, c); err != nil {
			return err
		}
		return mach.Driver.RunRRServer(p, c, cfg.MsgSize, &st)
	}, func(int) {
		client.Start(cycles.FromMicros(100)) // after queue setup settles
	})
	return collect(mach, cfg, cores, func(res *Result, window uint64) {
		res.LatencyUs = cycles.Micros(client.MeanLatency())
		res.LatencyP99Us = stats.SummarizeUint64(client.Samples, cycles.Hz/1e6).P99
		res.Transactions = client.Transactions
		res.Ops = client.Transactions
		res.Messages = st.Rx.Messages
		res.Gbps = cycles.Gbps(st.Rx.Bytes+st.Tx.Bytes, window)
	})
}

// MaxWindowMs is the longest window a run accepts: Measure sums the busy
// cycles of up to nic.MaxQueues cores into a uint64.
const MaxWindowMs = math.MaxUint64 / (cycles.Hz / 1e3) / nic.MaxQueues

// Cores is the set of workload procs SpawnCores started, one per core.
type Cores struct {
	Procs []*sim.Proc
	// Err is the first error a proc body returned; it is set while the
	// window runs, so read it after Measure.
	Err error
}

// SpawnCores spawns n workload procs: proc c is named name<c>, runs
// body(p, c) on core first+c and keeps the first error a body returns.
// started(c), when non-nil, runs right after proc c is spawned; it starts
// that core's traffic source or client, so every core's events are
// scheduled in spawn order.
func (m *Machine) SpawnCores(name string, first, n int, body func(p *sim.Proc, c int) error, started func(c int)) *Cores {
	cs := &Cores{Procs: make([]*sim.Proc, 0, n)}
	for c := 0; c < n; c++ {
		pr := m.Eng.Spawn(name+strconv.Itoa(c), first+c, 0, func(p *sim.Proc) {
			if err := body(p, c); err != nil && cs.Err == nil {
				cs.Err = err
			}
		})
		cs.Procs = append(cs.Procs, pr)
		if started != nil {
			started(c)
		}
	}
	return cs
}

// Measurement is what Measure reads at the end of a measured window.
type Measurement struct {
	Cycles uint64 // simulated cycles run
	Busy   uint64 // the measured procs' summed busy cycles
	// CPUPct is Busy over Cycles times the number of procs, unclamped:
	// a proc's busy cycles can run past the window's end.
	CPUPct float64
	// Profile is the cycle-attribution snapshot, with TotalBusy = Busy;
	// nil unless the machine is observed.
	Profile *obs.Profile
}

// Measure runs the machine for windowMs of simulated time from t=0 and
// reads what every windowed runner reads at its end: the procs' busy
// cycles and, on an observed machine, the profile. It is the one place
// a runner's measured window is decided.
func (m *Machine) Measure(windowMs float64, procs []*sim.Proc) Measurement {
	w := Measurement{Cycles: cycles.FromMillis(windowMs)}
	m.Eng.Run(w.Cycles)
	for _, p := range procs {
		w.Busy += p.Busy()
	}
	w.CPUPct = 100 * float64(w.Busy) / (float64(w.Cycles) * float64(len(procs)))
	if m.Obs != nil {
		pr := m.Obs.Prof.Snapshot()
		pr.TotalBusy = w.Busy
		w.Profile = &pr
	}
	return w
}

// collect measures the window of a network runner's procs and gathers
// the CPU, per-operation and mapper/NIC/IOMMU accounting the three share;
// fill adds the runner's own byte and operation counts. It returns the
// first error a proc body returned.
func collect(mach *Machine, cfg Config, cores *Cores, fill func(res *Result, window uint64)) (Result, error) {
	w := mach.Measure(cfg.WindowMs, cores.Procs)
	res := Result{
		Config:  cfg,
		CPUPct:  min(w.CPUPct, 100),
		PerOp:   make(map[string]float64),
		Profile: w.Profile,
	}
	for _, p := range cores.Procs {
		for tag, c := range p.Tagged() {
			res.PerOp[tag] += cycles.Micros(c) // temporarily total us; divided later
		}
	}
	res.MapperStats = mach.Mapper.Stats()
	res.PoolBytes = res.MapperStats.ShadowPoolBytes
	res.RxDrops = mach.NIC.RxDrops
	res.Faults = mach.IOMMU.FaultCount
	res.IOTLBHitRate = mach.IOMMU.TLB().HitRate()
	res.Invalidations = mach.IOMMU.Queue.Submitted
	sm, _ := mach.Mapper.(*core.ShadowMapper)
	if sm != nil {
		res.PoolBytesByClass = slices.Clone(sm.Pool().Stats().BytesByClass)
	}
	if cores.Err != nil {
		return res, cores.Err
	}
	fill(&res, w.Cycles)
	finishPerOp(&res)
	return res, nil
}

// finishPerOp converts the accumulated per-tag totals into per-operation
// microseconds, folding the IOVA-allocator time into "other" as the
// paper's breakdowns do.
func finishPerOp(res *Result) {
	if res.Ops == 0 {
		res.PerOp = map[string]float64{}
		return
	}
	if v, ok := res.PerOp[cycles.TagIOVA]; ok {
		res.PerOp[cycles.TagOther] += v
		delete(res.PerOp, cycles.TagIOVA)
	}
	for k := range res.PerOp {
		res.PerOp[k] /= float64(res.Ops)
	}
}
