package bench

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/sim"
)

// KVResult is the outcome of one memcached run.
type KVResult struct {
	System         string
	TransactionsPS float64
	CPUPct         float64
	GetPct         float64
	Errors         uint64
}

// RunMemcached reproduces one bar of Figure 11: 16 memcached instances
// (one per core) under memslap load (64 B keys, 1 KiB values, 90%/10%
// GET/SET), reporting aggregated transaction throughput and CPU.
func RunMemcached(system string, cores int, windowMs float64) (KVResult, error) {
	r, _, err := runMemcached(system, cores, windowMs, nil)
	return r, err
}

// runMemcached is RunMemcached with an optional observer installed on the
// machine; when o is non-nil the returned profile carries the servers'
// cycle attribution (TotalBusy = summed server-proc busy cycles).
func runMemcached(system string, cores int, windowMs float64, o *obs.Observer) (KVResult, *obs.Profile, error) {
	cfg := DefaultConfig(system, RX, cores, 1024)
	cfg.WindowMs = windowMs
	cfg.Obs = o
	mach, err := NewMachine(cfg)
	if err != nil {
		return KVResult{}, nil, err
	}
	defer mach.Teardown()
	return memcached(mach, cfg)
}

// memcached runs cfg.Cores memcached servers on mach for cfg's window.
func memcached(mach *Machine, cfg Config) (KVResult, *obs.Profile, error) {
	cores := cfg.Cores
	scfg := kv.DefaultServerConfig()
	ccfg := kv.DefaultClientConfig()
	keys := kv.DefaultKeys()
	stores := make([]*kv.Store, cores)
	stats := make([]kv.ServerStats, cores)
	clients := make([]*kv.Client, cores)
	for c := range stores {
		stores[c] = kv.NewStore(mach.Mem, mach.Kmal)
		if err := kv.Prepopulate(stores[c], mach.Env.DomainOfCore(c), keys, scfg); err != nil {
			return KVResult{}, nil, err
		}
		clients[c] = kv.NewClient(mach.Eng, mach.NIC, c, cfg.Costs, ccfg, keys)
	}
	servers := mach.SpawnCores("memcached", 0, cores, func(p *sim.Proc, c int) error {
		return kv.RunServer(p, mach.Driver, stores[c], c, scfg, &stats[c])
	}, func(c int) { clients[c].Start(cycles.FromMicros(200)) })
	w := mach.Measure(cfg.WindowMs, servers.Procs)
	if servers.Err != nil {
		return KVResult{}, nil, servers.Err
	}
	var tx, gets, sets, errors uint64
	for c := 0; c < cores; c++ {
		tx += clients[c].Transactions
		gets += clients[c].Gets
		sets += clients[c].Sets
		errors += stats[c].Errors
	}
	res := KVResult{
		System:         cfg.System,
		TransactionsPS: cycles.PerSec(tx, w.Cycles),
		CPUPct:         w.CPUPct,
		Errors:         errors,
	}
	if gets+sets > 0 {
		res.GetPct = 100 * float64(gets) / float64(gets+sets)
	}
	return res, w.Profile, nil
}

// Fig11 reproduces Figure 11 across the four systems.
func Fig11(opt Options) (*Table, error) {
	t := &Table{
		Name:    "fig11",
		Title:   "Figure 11: memcached aggregated throughput (16 instances, memslap 90/10 GET/SET)",
		Columns: []string{"system", "Mtx/s", "cpu%"},
	}
	t.SetWinner("mtx_per_sec", false)
	systems := opt.systems()
	results := make([]KVResult, len(systems))
	err := opt.farm().Map(len(systems), func(i int) error {
		r, err := RunMemcached(systems[i], 16, opt.window())
		if err != nil {
			return fmt.Errorf("%s: %w", systems[i], err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, sys := range systems {
		r := results[i]
		t.AddRow(sys, fmt.Sprintf("%.2f", r.TransactionsPS/1e6), f1(r.CPUPct))
		t.Point(sys, "16 cores", map[string]float64{
			"mtx_per_sec": r.TransactionsPS / 1e6,
			"cpu_pct":     r.CPUPct,
		})
	}
	return t, nil
}
