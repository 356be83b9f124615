package campaign

import (
	"repro/internal/bench"
	"repro/internal/cycles"
	"repro/internal/iommu"
	"repro/internal/report"
	"repro/internal/sim"
)

// table1Payloads are the paper's three Table 1 attacks, in the order
// RunTable1 mounts them: sub-page theft (§4 "no sub-page protection"),
// the post-unmap replay (§3, §4 "deferred protection"), and a DMA to an
// address the OS never authorized.
var table1Payloads = []string{"subpage-harvest", "replay-window", "arbitrary-scan"}

// RunTable1 mounts Table 1's three attacks back to back on one machine
// running system, and returns their results in table1Payloads order
// together with the IOMMU's fault count. The replay-window result
// carries "closed_after_flush": whether draining deferred invalidations
// closes the window. A non-nil onEvent receives the machine's IOMMU
// events.
func RunTable1(system string, onEvent func(iommu.Event)) ([]Result, uint64, error) {
	pls := make([]Payload, len(table1Payloads))
	for i, name := range table1Payloads {
		var err error
		if pls[i], err = Find(name); err != nil {
			return nil, 0, err
		}
	}
	return mount(system, onEvent, CellWindowMs, pls)
}

// mount executes pls back to back on one fresh target running system
// for windowMs of simulated time, and returns their results and the
// IOMMU's fault count.
func mount(system string, onEvent func(iommu.Event), windowMs float64, pls []Payload) ([]Result, uint64, error) {
	t, err := NewTarget(system, 1)
	if err != nil {
		return nil, 0, err
	}
	t.Mach.IOMMU.OnEvent = onEvent
	results := make([]Result, len(pls))
	var runErr error
	t.Mach.Eng.Spawn("victim", 0, 0, func(p *sim.Proc) {
		for i, pl := range pls {
			if runErr = Execute(p, t, pl, &results[i]); runErr != nil {
				return
			}
		}
	})
	t.Mach.Eng.Run(cycles.FromMillis(windowMs))
	faults := t.Mach.IOMMU.FaultCount
	t.Mach.Teardown()
	return results, faults, runErr
}

// perfThreshold is the fraction of no-iommu throughput below which a
// system is considered to have unacceptable overhead (the paper's ✗).
const perfThreshold = 0.65

// Table1 reproduces the paper's Table 1: its security columns come from
// RunTable1 on every system, its performance columns from RX throughput
// against no-iommu. The throughputs are Figure 1's points, read through
// bench.StreamSweep (RX, 16 KiB messages, 1 and 16 cores), so inside a
// suite they come from the report's run memo. The attack machines run as
// one point per system on opt.Farm (serially when it is nil).
func Table1(opt bench.Options) ([]report.AttackVerdict, *bench.Table, error) {
	systems := bench.AllSystems
	outs := make([][]Result, len(systems))
	err := opt.Farm.Map(len(systems), func(i int) error {
		var err error
		outs[i], _, err = RunTable1(systems[i], nil)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	opt.Systems = systems
	opt.Sizes = []int{16384}
	perf := map[int]map[string]map[int]bench.Result{}
	for _, cores := range []int{1, 16} {
		if perf[cores], err = bench.StreamSweep(bench.RX, cores, opt); err != nil {
			return nil, nil, err
		}
	}
	ratio := func(sys string, cores int) float64 {
		base := perf[cores][bench.SysNoIOMMU][16384].Gbps
		if base <= 0 {
			return 0
		}
		return perf[cores][sys][16384].Gbps / base
	}
	rows := make([]report.AttackVerdict, len(systems))
	for i, sys := range systems {
		subPage, window, arbitrary := outs[i][0].Success, outs[i][1].Success, outs[i][2].Success
		rows[i] = report.AttackVerdict{
			System:          sys,
			SubPageProtect:  !subPage && !arbitrary,
			NoVulnWindow:    !window && !arbitrary,
			SingleCoreRatio: ratio(sys, 1),
			MultiCoreRatio:  ratio(sys, 16),
		}
		rows[i].SingleCorePerf = rows[i].SingleCoreRatio >= perfThreshold
		rows[i].MultiCorePerf = rows[i].MultiCoreRatio >= perfThreshold
	}
	return rows, renderTable1(rows), nil
}

func yesNo(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

func renderTable1(rows []report.AttackVerdict) *bench.Table {
	t := &bench.Table{
		Name:  "table1",
		Title: "Table 1: protection model comparison (security from attacks, perf from RX benchmarks)",
		Columns: []string{"model", "sub-page protect", "no vulnerability window",
			"single-core perf", "multi-core perf"},
	}
	for _, r := range rows {
		t.AddRow(r.System, yesNo(r.SubPageProtect), yesNo(r.NoVulnWindow),
			yesNo(r.SingleCorePerf), yesNo(r.MultiCorePerf))
		t.Point(r.System, "vs no-iommu", map[string]float64{
			"single_core_ratio": r.SingleCoreRatio,
			"multi_core_ratio":  r.MultiCoreRatio,
		})
	}
	return t
}

// WindowSample is one point of the vulnerability-window sweep: did a
// device write replayed DelayUs after dma_unmap reach OS memory?
type WindowSample struct {
	DelayUs float64
	Landed  bool
}

// WindowSweep measures how long after dma_unmap a replayed device write
// still lands, for a given protection strategy, mounting the
// replay-window payload (no flush check) on a fresh machine per delay.
// Under Linux-style deferred protection the window extends to the
// earlier of the 250-unmap batch or the 10 ms timer — the paper (§3)
// observed that corrupting a buffer within 10us of its unmap crashes
// Linux, and notes buffers can stay accessible "for up to 10
// milliseconds".
func WindowSweep(system string, delaysUs []float64) ([]WindowSample, error) {
	var out []WindowSample
	for _, d := range delaysUs {
		w := newReplayWindow(d, false)
		if _, _, err := mount(system, nil, d/1000+30, []Payload{w}); err != nil {
			return nil, err
		}
		out = append(out, WindowSample{DelayUs: d, Landed: w.landed})
	}
	return out, nil
}
