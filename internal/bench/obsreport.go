package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Cycle-attribution reporting (-cyclereport) and Chrome trace export
// (-tracefile): the bench-harness face of internal/obs. Each profiled run
// gets its own Observer (observers are per-engine state), and the results
// render as the same Table/Series schema every other experiment uses, so
// cycle reports flow into -json artifacts and benchdiff unchanged.

// cyclePoint is one profiled workload point of a cycle report.
type cyclePoint struct {
	system string
	run    func() (*obs.Profile, error)
}

// profileTable renders per-system profiles as a breakdown-category table:
// one row per category (percent of the workload procs' busy cycles), plus
// attribution coverage and the busy-cycle denominator. The structured
// series carries the same numbers for the artifact schema.
func profileTable(name, title string, systems []string, profs map[string]*obs.Profile) *Table {
	t := &Table{
		Name:    name,
		Title:   title,
		Note:    "percent of workload-proc busy cycles, by span category (internal/obs)",
		Columns: append([]string{"category"}, systems...),
	}
	// Union of categories, ordered by total cycles across systems.
	totals := make(map[string]uint64)
	for _, sys := range systems {
		if p := profs[sys]; p != nil {
			for _, g := range p.Groups() {
				totals[g.Group] += g.Cycles
			}
		}
	}
	groups := make([]string, 0, len(totals))
	for g := range totals {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool {
		if totals[groups[i]] != totals[groups[j]] {
			return totals[groups[i]] > totals[groups[j]]
		}
		return groups[i] < groups[j]
	})
	pct := func(p *obs.Profile, cyc uint64) float64 {
		if p == nil || p.TotalBusy == 0 {
			return 0
		}
		return 100 * float64(cyc) / float64(p.TotalBusy)
	}
	for _, g := range groups {
		row := []string{g}
		for _, sys := range systems {
			row = append(row, f1(pct(profs[sys], profs[sys].GroupCycles(g))))
		}
		t.AddRow(row...)
	}
	cov := []string{"attributed %"}
	busy := []string{"busy Mcycles"}
	for _, sys := range systems {
		p := profs[sys]
		cov = append(cov, f1(100*p.Coverage()))
		busy = append(busy, f1(float64(p.TotalBusy)/1e6))
		metrics := map[string]float64{
			"coverage":     p.Coverage(),
			"busy_mcycles": float64(p.TotalBusy) / 1e6,
		}
		for _, g := range groups {
			metrics[g+"_pct"] = pct(p, p.GroupCycles(g))
		}
		t.Point(sys, "busy", metrics)
	}
	t.AddRow(cov...)
	t.AddRow(busy...)
	return t
}

// runCycleTable executes one profiled run per system (concurrently — each
// on its own machine and observer) and folds them into a profileTable.
func runCycleTable(name, title string, pts []cyclePoint) (*Table, error) {
	profs := make(map[string]*obs.Profile, len(pts))
	systems := make([]string, 0, len(pts))
	errs := make([]error, len(pts))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, pt := range pts {
		systems = append(systems, pt.system)
		i, pt := i, pt
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			p, err := pt.run()
			if err != nil {
				errs[i] = fmt.Errorf("%s/%s: %w", name, pt.system, err)
				return
			}
			mu.Lock()
			profs[pt.system] = p
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return profileTable(name, title, systems, profs), nil
}

// streamCyclePoints builds the profiled-run closures for one STREAM point.
func streamCyclePoints(dir Direction, cores, msgSize int, opt Options) []cyclePoint {
	pts := make([]cyclePoint, 0, len(opt.systems()))
	for _, sys := range opt.systems() {
		sys := sys
		pts = append(pts, cyclePoint{system: sys, run: func() (*obs.Profile, error) {
			cfg := opt.config(sys, dir, cores, msgSize)
			cfg.Obs = obs.New(false)
			r, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			return r.Profile, nil
		}})
	}
	return pts
}

// CycleReport profiles the paper's two contended receive points — 16-core
// RX at MTU-sized (1500 B) messages (the Figure 6 collapse point) and at
// 64 KiB messages (the Figure 8a breakdown point) — and reports where each
// strategy's cycles go. This is the -cyclereport table: for strict and
// identity+ the invalidate and lock/spin categories dominate the DMA-side
// cost; for the copy strategy it is copy and copy-mgmt instead.
func CycleReport(opt Options) ([]*Table, error) {
	if len(opt.Systems) == 0 {
		opt.Systems = AllSystems
	}
	var out []*Table
	for _, pt := range []struct {
		name, title string
		msg         int
	}{
		{"cycles-mtu", "Cycle attribution: 16-core TCP RX, 1500B messages (Figure 6 point)", 1500},
		{"cycles-64k", "Cycle attribution: 16-core TCP RX, 64KB messages (Figure 8a point)", 65536},
	} {
		t, err := runCycleTable(pt.name, pt.title, streamCyclePoints(RX, 16, pt.msg, opt))
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// CycleReportRR profiles the latency workload (single-core TCP_RR, 64 KiB
// messages — the Figure 10 point) for latbench's -cyclereport.
func CycleReportRR(opt Options) (*Table, error) {
	if len(opt.Systems) == 0 {
		opt.Systems = AllSystems
	}
	return runCycleTable("cycles-rr",
		"Cycle attribution: single-core TCP RR, 64KB messages (Figure 10 point)",
		streamCyclePoints(RR, 1, 65536, opt))
}

// CycleReportKV profiles the memcached workload (Figure 11) for kvbench's
// -cyclereport.
func CycleReportKV(cores int, opt Options) (*Table, error) {
	if len(opt.Systems) == 0 {
		opt.Systems = FigureSystems
	}
	pts := make([]cyclePoint, 0, len(opt.systems()))
	for _, sys := range opt.systems() {
		sys := sys
		pts = append(pts, cyclePoint{system: sys, run: func() (*obs.Profile, error) {
			_, p, err := runMemcached(sys, cores, opt.window(), obs.New(false))
			return p, err
		}})
	}
	return runCycleTable("cycles-kv",
		fmt.Sprintf("Cycle attribution: memcached, %d instances (Figure 11 workload)", cores), pts)
}

// CycleReportMicro profiles the DMA-API microbenchmark's MTU receive
// pattern for apibench's -cyclereport: with no datapath around the
// map/unmap pairs, the table is the paper's §4 cost argument in category
// form.
func CycleReportMicro(opt Options) (*Table, error) {
	if len(opt.Systems) == 0 {
		opt.Systems = AllSystems
	}
	pat := MicroPatterns[0] // "rx 1500B"
	pts := make([]cyclePoint, 0, len(opt.systems()))
	for _, sys := range opt.systems() {
		sys := sys
		pts = append(pts, cyclePoint{system: sys, run: func() (*obs.Profile, error) {
			_, p, err := runMicro(sys, pat, 2000, obs.New(false))
			return p, err
		}})
	}
	return runCycleTable("cycles-micro",
		"Cycle attribution: DMA API microbenchmark, "+pat.Name+" pattern", pts)
}

// TraceWindowMs bounds -tracefile runs: a couple of simulated milliseconds
// keeps the slice count well under the recorder cap while still showing
// thousands of packets.
const TraceWindowMs = 2

// WriteTrace runs one configuration with timeline recording enabled and
// writes the Chrome trace-event JSON (Perfetto-loadable) to path. The
// window is clamped to TraceWindowMs.
func WriteTrace(cfg Config, path string) (Result, error) {
	if cfg.WindowMs <= 0 || cfg.WindowMs > TraceWindowMs {
		cfg.WindowMs = TraceWindowMs
	}
	o := obs.New(true)
	cfg.Obs = o
	res, err := Run(cfg)
	if err != nil {
		return res, err
	}
	return res, o.WriteTraceFile(path)
}

// WriteTraceKV records the memcached workload's timeline.
func WriteTraceKV(system string, cores int, path string) (KVResult, error) {
	o := obs.New(true)
	r, _, err := runMemcached(system, cores, TraceWindowMs, o)
	if err != nil {
		return r, err
	}
	return r, o.WriteTraceFile(path)
}

// WriteTraceMicro records the DMA-API microbenchmark's timeline.
func WriteTraceMicro(system string, path string) (MicroResult, error) {
	o := obs.New(true)
	r, _, err := runMicro(system, MicroPatterns[0], 2000, o)
	if err != nil {
		return r, err
	}
	return r, o.WriteTraceFile(path)
}
