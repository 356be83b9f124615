package bench

import (
	"fmt"
	"slices"

	"repro/internal/cycles"
	"repro/internal/obs"
)

// Cycle-attribution reporting (-cyclereport) and Chrome trace export
// (-tracefile): the bench-harness face of internal/obs. Each profiled run
// gets its own Observer (observers are per-engine state), and the results
// render as the same Table/Series schema every other experiment uses, so
// cycle reports flow into -json artifacts and benchdiff unchanged.

// reportComponents are the cycle report's rows: the figures' components
// in their order, then the IOVA allocator, which Figures 5, 8 and 10 fold
// into "other" (finishPerOp) and the report keeps apart.
var reportComponents = append(slices.Clone(cycles.Components), cycles.TagIOVA)

// profileTable renders per-system profiles (profs[i] is systems[i]'s) as
// a component table: one row per cycles component (percent of the
// workload procs' busy cycles), plus attribution coverage and the
// busy-cycle denominator. The structured series carries the same numbers
// for the artifact schema.
func profileTable(name, title string, systems []string, profs []*obs.Profile) *Table {
	t := &Table{
		Name:    name,
		Title:   title,
		Note:    "percent of workload-proc busy cycles, by cycles component (internal/obs)",
		Columns: append([]string{"component"}, systems...),
	}
	pct := func(p *obs.Profile, comp string) float64 {
		if p.TotalBusy == 0 {
			return 0
		}
		return 100 * float64(p.Component(comp)) / float64(p.TotalBusy)
	}
	for _, comp := range reportComponents {
		row := []string{comp}
		for _, p := range profs {
			row = append(row, f1(pct(p, comp)))
		}
		t.AddRow(row...)
	}
	cov := []string{"attributed %"}
	busy := []string{"busy Mcycles"}
	for i, p := range profs {
		cov = append(cov, f1(100*p.Coverage()))
		busy = append(busy, f1(float64(p.TotalBusy)/1e6))
		metrics := map[string]float64{
			"coverage":     p.Coverage(),
			"busy_mcycles": float64(p.TotalBusy) / 1e6,
		}
		for _, comp := range reportComponents {
			metrics[comp+"_pct"] = pct(p, comp)
		}
		t.Point(systems[i], "busy", metrics)
	}
	t.AddRow(cov...)
	t.AddRow(busy...)
	return t
}

// workload runs one observed machine of a system and returns its
// profile: the unit both -cyclereport and -tracefile run.
type workload func(opt Options, system string, o *obs.Observer) (*obs.Profile, error)

// streamWorkload is one netperf point.
func streamWorkload(dir Direction, cores, msgSize int) workload {
	return func(opt Options, sys string, o *obs.Observer) (*obs.Profile, error) {
		cfg := opt.config(sys, dir, cores, msgSize)
		cfg.Obs = o
		r, err := Run(cfg)
		return r.Profile, err
	}
}

// memcachedWorkload is Figure 11's 16 memcached instances.
func memcachedWorkload(opt Options, sys string, o *obs.Observer) (*obs.Profile, error) {
	_, p, err := runMemcached(sys, 16, opt.window(), o)
	return p, err
}

// microWorkload is the DMA-API microbenchmark's MTU receive pattern.
func microWorkload(_ Options, sys string, o *obs.Observer) (*obs.Profile, error) {
	_, p, err := runMicro(sys, MicroPatterns[0], 2000, o)
	return p, err
}

// cycleTables are the -cyclereport tables: a workload profiled once per
// system.
var cycleTables = []struct {
	name, title string
	systems     []string
	run         workload
}{
	{"cycles-mtu", "Cycle attribution: 16-core TCP RX, 1500B messages (Figure 6 point)",
		AllSystems, streamWorkload(RX, 16, 1500)},
	{"cycles-64k", "Cycle attribution: 16-core TCP RX, 64KB messages (Figure 8a point)",
		AllSystems, streamWorkload(RX, 16, 65536)},
	{"cycles-rr", "Cycle attribution: single-core TCP RR, 64KB messages (Figure 10 point)",
		AllSystems, streamWorkload(RR, 1, 65536)},
	{"cycles-kv", "Cycle attribution: memcached, 16 instances (Figure 11 workload)",
		FigureSystems, memcachedWorkload},
	{"cycles-micro", "Cycle attribution: DMA API microbenchmark, " + MicroPatterns[0].Name + " pattern",
		ExtendedSystems, microWorkload},
}

// CycleReport profiles the paper's contended points and reports where
// each strategy's cycles go, one table per workload: 16-core RX at
// MTU-sized (1500 B) messages (the Figure 6 collapse point) and at 64 KiB
// (Figure 8a), single-core RR at 64 KiB (Figure 10), memcached at 16
// instances (Figure 11) and the DMA-API microbenchmark's MTU receive
// pattern. For strict and identity+ the invalidate iotlb and spinlock
// components dominate the DMA-side cost; for the copy strategy it is
// memcpy and copy mgmt instead. Without an IOMMU, map and unmap are free, so
// no-iommu's microbenchmark column has no busy cycles. Every profiled run
// is one point on the options' farm.
func CycleReport(opt Options) ([]*Table, error) {
	type point struct{ table, system int }
	var pts []point
	for i, ct := range cycleTables {
		for j := range ct.systems {
			pts = append(pts, point{i, j})
		}
	}
	profs := make([]*obs.Profile, len(pts))
	err := opt.farm().Map(len(pts), func(k int) error {
		ct := cycleTables[pts[k].table]
		sys := ct.systems[pts[k].system]
		p, err := ct.run(opt, sys, obs.New(false))
		if err != nil {
			return fmt.Errorf("%s/%s: %w", ct.name, sys, err)
		}
		profs[k] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]*Table, len(cycleTables))
	for i, ct := range cycleTables {
		out[i] = profileTable(ct.name, ct.title, ct.systems, profs[:len(ct.systems)])
		profs = profs[len(ct.systems):]
	}
	return out, nil
}

// TraceWindowMs bounds -tracefile runs: a couple of simulated milliseconds
// keeps the slice count well under the recorder cap while still showing
// thousands of packets.
const TraceWindowMs = 2

// tracedMachines are the flagship machines -tracefile records, each with
// the sections it stands for, in Suite order.
var tracedMachines = []struct {
	sections []string
	system   string
	run      workload
}{
	{[]string{"fig6"}, SysLinuxStrict, streamWorkload(RX, 16, 1500)},
	{[]string{"fig9", "fig10"}, SysLinuxStrict, streamWorkload(RR, 1, 65536)},
	{[]string{"fig11"}, SysLinuxStrict, memcachedWorkload},
	{[]string{"memory", "memdetail"}, SysCopy, streamWorkload(RX, 16, 65536)},
	{[]string{"apimicro"}, SysLinuxStrict, microWorkload},
}

// WriteSelectionTrace records the flagship machine of the first selected
// section, in Suite order, that has one, and writes its Chrome trace to
// path: Figure 6's 16-core strict RX, the strict RR machine of Figures 9
// and 10, strict memcached for Figure 11, the copy strategy's 16-core RX
// for the memory sections, or the strict map/unmap loop for apimicro. A
// selection with none of these (nil selects every section) records the
// 16-core strict RX machine. The window is min(windowMs, TraceWindowMs).
func WriteSelectionTrace(sections []string, windowMs float64, path string) error {
	if windowMs <= 0 || windowMs > TraceWindowMs {
		windowMs = TraceWindowMs
	}
	selected := func(s string) bool { return sections == nil || slices.Contains(sections, s) }
	m := tracedMachines[0]
	for _, tm := range tracedMachines {
		if slices.ContainsFunc(tm.sections, selected) {
			m = tm
			break
		}
	}
	o := obs.New(true)
	if _, err := m.run(Options{WindowMs: windowMs}, m.system, o); err != nil {
		return err
	}
	return o.WriteTraceFile(path)
}
