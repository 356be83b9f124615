package attack

import (
	"repro/internal/bench"
	"repro/internal/report"
)

// Table1Row is one line of the paper's Table 1: the security properties
// come from running the attack scenarios, the performance columns from
// measuring RX throughput against the no-iommu baseline.
type Table1Row struct {
	System          string
	SubPageProtect  bool
	NoVulnWindow    bool
	SingleCorePerf  bool
	MultiCorePerf   bool
	SingleCoreRatio float64
	MultiCoreRatio  float64
}

// perfThreshold is the fraction of no-iommu throughput below which a
// system is considered to have unacceptable overhead (the paper's ✗).
const perfThreshold = 0.65

// Table1 reproduces Table 1: it attacks and benchmarks every system. The
// throughputs are Figure 1's points, read through bench.StreamSweep (RX,
// 16 KiB messages, 1 and 16 cores), so inside a suite they come from the
// report's run memo. The attack scenarios run as one point per system on
// opt.Farm (serially when it is nil).
func Table1(opt bench.Options) ([]Table1Row, *bench.Table, error) {
	systems := bench.AllSystems
	outs := make([]Outcome, len(systems))
	err := opt.Farm.Map(len(systems), func(i int) error {
		var err error
		outs[i], err = Run(systems[i])
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
	rows := make([]Table1Row, len(systems))
	for i, sys := range systems {
		rows[i] = Table1Row{
			System:          sys,
			SubPageProtect:  !outs[i].SubPageLeak && !outs[i].ArbitraryRead,
			NoVulnWindow:    !outs[i].WindowWrite && !outs[i].ArbitraryRead,
			SingleCoreRatio: ratio(sys, 1),
			MultiCoreRatio:  ratio(sys, 16),
		}
		rows[i].SingleCorePerf = rows[i].SingleCoreRatio >= perfThreshold
		rows[i].MultiCorePerf = rows[i].MultiCoreRatio >= perfThreshold
	}
	return rows, renderTable1(rows), nil
}

func mark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

func renderTable1(rows []Table1Row) *bench.Table {
	t := &bench.Table{
		Name:  "table1",
		Title: "Table 1: protection model comparison (security from attacks, perf from RX benchmarks)",
		Columns: []string{"model", "sub-page protect", "no vulnerability window",
			"single-core perf", "multi-core perf"},
	}
	for _, r := range rows {
		t.AddRow(r.System, mark(r.SubPageProtect), mark(r.NoVulnWindow),
			mark(r.SingleCorePerf), mark(r.MultiCorePerf))
		t.Point(r.System, "vs no-iommu", map[string]float64{
			"single_core_ratio": r.SingleCoreRatio,
			"multi_core_ratio":  r.MultiCoreRatio,
		})
	}
	return t
}

// Verdicts converts Table1 rows into the artifact's attack-matrix form.
func Verdicts(rows []Table1Row) []report.AttackVerdict {
	out := make([]report.AttackVerdict, 0, len(rows))
	for _, r := range rows {
		out = append(out, report.AttackVerdict{
			System:          r.System,
			SubPageProtect:  r.SubPageProtect,
			NoVulnWindow:    r.NoVulnWindow,
			SingleCorePerf:  r.SingleCorePerf,
			MultiCorePerf:   r.MultiCorePerf,
			SingleCoreRatio: r.SingleCoreRatio,
			MultiCoreRatio:  r.MultiCoreRatio,
		})
	}
	return out
}
