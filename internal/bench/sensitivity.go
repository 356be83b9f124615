package bench

import (
	"fmt"

	"repro/internal/cycles"
)

// Sensitivity analysis: the reproduction's conclusions come from a cost
// model fit to the paper's published microcosts, so we verify that the
// paper's qualitative claims are robust to calibration error — each key
// constant is perturbed by ±25% and the claims re-evaluated. A claim that
// flips under a small perturbation would mean the reproduction's shape
// depends on a lucky constant rather than on the design.

// Claim is a machine-checkable qualitative statement from the paper.
type Claim struct {
	Name string
	// Holds evaluates the claim from the four-system measurements at
	// single-core and 16-core RX.
	Holds func(single, multi map[string]Result) bool
}

// PaperClaims are the headline statements the sensitivity analysis guards.
var PaperClaims = []Claim{
	{
		Name: "copy beats identity- (1 core)",
		Holds: func(s, _ map[string]Result) bool {
			return s[SysCopy].Gbps >= s[SysIdentityDefer].Gbps*0.98
		},
	},
	{
		Name: "copy >= 0.65x no-iommu (1 core)",
		Holds: func(s, _ map[string]Result) bool {
			return s[SysCopy].Gbps >= s[SysNoIOMMU].Gbps*0.65
		},
	},
	{
		Name: "copy >= 1.5x identity+ (1 core)",
		Holds: func(s, _ map[string]Result) bool {
			return s[SysCopy].Gbps >= s[SysIdentityStrict].Gbps*1.5
		},
	},
	{
		Name: "identity+ collapses (16 cores)",
		Holds: func(_, m map[string]Result) bool {
			return m[SysIdentityStrict].Gbps <= m[SysCopy].Gbps*0.5
		},
	},
	{
		Name: "copy holds wire rate (16 cores)",
		Holds: func(_, m map[string]Result) bool {
			return m[SysCopy].Gbps >= m[SysNoIOMMU].Gbps*0.95
		},
	},
}

// Perturbation scales one cost-model constant.
type Perturbation struct {
	Name  string
	Apply func(c *cycles.Costs, scale float64)
}

// Perturbations are the constants most likely to carry calibration error.
var Perturbations = []Perturbation{
	{"iotlb invalidation", func(c *cycles.Costs, s float64) {
		c.IOTLBInvalidateHW = uint64(float64(c.IOTLBInvalidateHW) * s)
	}},
	{"memcpy per byte", func(c *cycles.Costs, s float64) {
		c.MemcpyPerByte = uint64(float64(c.MemcpyPerByte) * s)
	}},
	{"lock contention", func(c *cycles.Costs, s float64) {
		c.LockHandoffPerWaiter = uint64(float64(c.LockHandoffPerWaiter) * s)
		c.LockHandoffBase = uint64(float64(c.LockHandoffBase) * s)
	}},
	{"page table mgmt", func(c *cycles.Costs, s float64) {
		c.PTMap = uint64(float64(c.PTMap) * s)
		c.PTUnmap = uint64(float64(c.PTUnmap) * s)
	}},
	{"baseline pkt cost", func(c *cycles.Costs, s float64) {
		c.PktOther = uint64(float64(c.PktOther) * s)
		c.PktPerByte = uint64(float64(c.PktPerByte) * s)
	}},
}

// SensitivityScales are the perturbation factors applied to each constant.
var SensitivityScales = []float64{0.75, 1.25}

// claimPointCores are the core counts each claim set is measured at.
var claimPointCores = []int{1, 16}

// Sensitivity evaluates every paper claim under every perturbation,
// returning the robustness matrix and the number of claim violations.
// The full (perturbation x scale x system x cores) grid — 88 machines —
// is flattened into individual farm points and the matrix reassembled in
// canonical row order, so this (previously fully serial, and the slowest
// section of the suite) scales with the worker count.
func Sensitivity(opt Options) (*Table, int, error) {
	type rowSpec struct {
		name  string
		scale float64
		costs *cycles.Costs
	}
	rows := []rowSpec{{"(baseline)", 1.0, cycles.Default()}}
	for _, pert := range Perturbations {
		for _, scale := range SensitivityScales {
			costs := cycles.Default()
			pert.Apply(costs, scale)
			rows = append(rows, rowSpec{pert.Name, scale, costs})
		}
	}

	perRow := len(FigureSystems) * len(claimPointCores)
	var cfgs []Config
	for _, row := range rows {
		ro := Options{WindowMs: opt.window(), Costs: row.costs}
		for _, sys := range FigureSystems {
			for _, cores := range claimPointCores {
				cfgs = append(cfgs, ro.config(sys, RX, cores, 16384))
			}
		}
	}
	results, err := opt.runConfigs(cfgs, func(i int) string {
		row := rows[i/perRow]
		return fmt.Sprintf("%s x%.2f %s/%d cores", row.name, row.scale, cfgs[i].System, cfgs[i].Cores)
	})
	if err != nil {
		return nil, 0, err
	}

	t := &Table{
		Name:    "sensitivity",
		Title:   "Sensitivity analysis: paper claims under +/-25% cost-model perturbation",
		Columns: []string{"perturbation", "scale"},
	}
	for _, c := range PaperClaims {
		t.Columns = append(t.Columns, c.Name)
	}
	violations := 0
	for ri, spec := range rows {
		single := make(map[string]Result)
		multi := make(map[string]Result)
		for si, sys := range FigureSystems {
			for ci, cores := range claimPointCores {
				r := results[ri*perRow+si*len(claimPointCores)+ci]
				if cores == 1 {
					single[sys] = r
				} else {
					multi[sys] = r
				}
			}
		}
		row := []string{spec.name, fmt.Sprintf("%.2f", spec.scale)}
		series := fmt.Sprintf("%s x%.2f", spec.name, spec.scale)
		for _, c := range PaperClaims {
			holds := c.Holds(single, multi)
			if holds {
				row = append(row, "holds")
			} else {
				row = append(row, "FLIPS")
				violations++
			}
			v := 0.0
			if holds {
				v = 1.0
			}
			t.Point(series, c.Name, map[string]float64{"holds": v})
		}
		t.AddRow(row...)
	}
	return t, violations, nil
}
