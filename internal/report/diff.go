package report

import (
	"fmt"
	"math"
	"strings"
)

// DiffOptions tunes the artifact comparison.
type DiffOptions struct {
	// Tol is the default relative tolerance: a metric whose relative
	// change exceeds it is reported. Zero means exact comparison.
	Tol float64
	// MetricTol overrides Tol per metric name.
	MetricTol map[string]float64
	// TieMargin suppresses winner-flip reports when the two contenders
	// are within this relative margin in BOTH artifacts (a near-tie
	// trading places is noise, not a claim flip). Default 0 = any
	// inversion counts.
	TieMargin float64
	// AbsFloor suppresses changes whose absolute magnitude is below it
	// (guards tiny denominators: 0.001us -> 0.002us is a 100% change
	// of nothing). Default 0.
	AbsFloor float64
	// IgnoreMissing downgrades "present in A, absent in B" findings
	// from failures to notes.
	IgnoreMissing bool
}

// Change is one metric that moved beyond tolerance.
type Change struct {
	Experiment string  `json:"experiment"`
	System     string  `json:"system"`
	Label      string  `json:"label"`
	Metric     string  `json:"metric"`
	A          float64 `json:"a"`
	B          float64 `json:"b"`
	Rel        float64 `json:"rel"` // signed relative change (B-A)/|A|
}

func (c Change) String() string {
	return fmt.Sprintf("%s [%s @ %s] %s: %.10g -> %.10g (%+.3g%%)",
		c.Experiment, c.System, c.Label, c.Metric, c.A, c.B, 100*c.Rel)
}

// Flip is a who-wins inversion on an experiment's claim metric.
type Flip struct {
	Experiment string  `json:"experiment"`
	Label      string  `json:"label"`
	Metric     string  `json:"metric"`
	WinnerA    string  `json:"winner_a"`
	WinnerB    string  `json:"winner_b"`
	ValueA     float64 `json:"value_a"` // old winner's value in A
	ValueB     float64 `json:"value_b"` // new winner's value in B
}

func (f Flip) String() string {
	return fmt.Sprintf("%s [@ %s] %s winner flips: %q -> %q (%.4g -> %.4g)",
		f.Experiment, f.Label, f.Metric, f.WinnerA, f.WinnerB, f.ValueA, f.ValueB)
}

// DiffReport is the outcome of comparing two artifacts.
type DiffReport struct {
	Changes []Change `json:"changes,omitempty"`
	Flips   []Flip   `json:"flips,omitempty"`
	// Missing lists experiments/series/points/metrics present in A but
	// absent from B (a shrinking evaluation is itself a regression).
	Missing []string `json:"missing,omitempty"`
	// Notes are informational findings that never fail the gate.
	Notes []string `json:"notes,omitempty"`
	// Compared counts individual metric comparisons performed.
	Compared int `json:"compared"`

	ignoreMissing bool
}

// OK reports whether the comparison passed the gate.
func (r *DiffReport) OK() bool {
	if len(r.Changes) > 0 || len(r.Flips) > 0 {
		return false
	}
	return r.ignoreMissing || len(r.Missing) == 0
}

// String renders the report for terminals/CI logs.
func (r *DiffReport) String() string {
	var b strings.Builder
	for _, f := range r.Flips {
		fmt.Fprintf(&b, "CLAIM FLIP  %s\n", f)
	}
	for _, c := range r.Changes {
		fmt.Fprintf(&b, "CHANGE      %s\n", c)
	}
	for _, m := range r.Missing {
		fmt.Fprintf(&b, "MISSING     %s\n", m)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	verdict := "PASS"
	if !r.OK() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "%s: %d metrics compared, %d beyond tolerance, %d claim flips, %d missing\n",
		verdict, r.Compared, len(r.Changes), len(r.Flips), len(r.Missing))
	return b.String()
}

// Diff compares artifact B (candidate) against A (baseline).
func Diff(a, b *Artifact, opt DiffOptions) (*DiffReport, error) {
	if a.Schema != b.Schema {
		return nil, fmt.Errorf("report: schema mismatch: %d vs %d", a.Schema, b.Schema)
	}
	r := &DiffReport{ignoreMissing: opt.IgnoreMissing}
	if a.CostModel.Fingerprint != b.CostModel.Fingerprint {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"cost-model fingerprints differ (%s vs %s): metric shifts may reflect recalibration, not code",
			a.CostModel.Fingerprint, b.CostModel.Fingerprint))
	}
	if a.WindowMs != b.WindowMs && a.WindowMs != 0 && b.WindowMs != 0 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"windows differ (%.3g ms vs %.3g ms): comparison may be noisy", a.WindowMs, b.WindowMs))
	}
	for i := range a.Experiments {
		ea := &a.Experiments[i]
		eb := b.Experiment(ea.Name)
		if eb == nil {
			r.Missing = append(r.Missing, fmt.Sprintf("experiment %q", ea.Name))
			continue
		}
		diffExperiment(r, ea, eb, opt)
	}
	for i := range b.Experiments {
		if a.Experiment(b.Experiments[i].Name) == nil {
			r.Notes = append(r.Notes, fmt.Sprintf("experiment %q is new in B", b.Experiments[i].Name))
		}
	}
	diffAttacks(r, a, b)
	return r, nil
}

// hostTimeMetric reports whether a metric name records host wall-clock
// time rather than simulated time. Host time varies run to run (machine
// load, parallelism, CPU count), so such metrics are informational and
// must never enter the comparison on either side — exactly like the
// structural Experiment.WallMs and Artifact.CreatedAt fields, which the
// diff never reads.
func hostTimeMetric(name string) bool {
	switch name {
	case "wall_ms", "wall_us", "wall_s", "host_ms", "elapsed_ms", "created_at":
		return true
	}
	return strings.HasPrefix(name, "wall_") || strings.HasPrefix(name, "host_") ||
		strings.HasPrefix(name, "farm.")
}

func diffExperiment(r *DiffReport, ea, eb *Experiment, opt DiffOptions) {
	for i := range ea.Series {
		sa := &ea.Series[i]
		sb := findSeries(eb, sa.System)
		if sb == nil {
			r.Missing = append(r.Missing, fmt.Sprintf("experiment %q series %q", ea.Name, sa.System))
			continue
		}
		for j := range sa.Points {
			pa := &sa.Points[j]
			pb := sb.point(pa.Label)
			if pb == nil {
				r.Missing = append(r.Missing, fmt.Sprintf("experiment %q %s point %q",
					ea.Name, sa.System, pa.Label))
				continue
			}
			for _, metric := range sortedKeys(pa.Metrics) {
				if hostTimeMetric(metric) {
					continue
				}
				va := pa.Metrics[metric]
				vb, ok := pb.Metrics[metric]
				if !ok {
					r.Missing = append(r.Missing, fmt.Sprintf("experiment %q %s @ %s metric %q",
						ea.Name, sa.System, pa.Label, metric))
					continue
				}
				r.Compared++
				if beyond(va, vb, tolFor(metric, opt), opt.AbsFloor) {
					rel := math.Inf(1)
					if va != 0 {
						rel = (vb - va) / math.Abs(va)
					}
					r.Changes = append(r.Changes, Change{
						Experiment: ea.Name, System: sa.System, Label: pa.Label,
						Metric: metric, A: va, B: vb, Rel: rel,
					})
				}
			}
		}
	}
	diffWinner(r, ea, eb, opt)
}

// beyond reports whether va -> vb exceeds the relative tolerance.
func beyond(va, vb, tol, absFloor float64) bool {
	d := math.Abs(vb - va)
	if d == 0 {
		return false
	}
	if d <= absFloor {
		return false
	}
	scale := math.Max(math.Abs(va), math.Abs(vb))
	if scale == 0 {
		return false
	}
	return d > tol*scale
}

func tolFor(metric string, opt DiffOptions) float64 {
	if t, ok := opt.MetricTol[metric]; ok {
		return t
	}
	return opt.Tol
}

func findSeries(e *Experiment, system string) *Series {
	for i := range e.Series {
		if e.Series[i].System == system {
			return &e.Series[i]
		}
	}
	return nil
}

// diffWinner detects per-point who-wins inversions on the experiment's
// declared claim metric.
func diffWinner(r *DiffReport, ea, eb *Experiment, opt DiffOptions) {
	w := ea.Winner
	if w == nil || w.Metric == "" {
		return
	}
	for _, label := range ea.labels() {
		winA, runnerUpA, okA := winnerAt(ea, label, w)
		winB, _, okB := winnerAt(eb, label, w)
		if !okA || !okB || winA == winB {
			continue
		}
		// A near-tie trading places is noise, not a flip: require the
		// inversion to exceed the tie margin in both artifacts.
		if opt.TieMargin > 0 {
			if withinMargin(valueAt(ea, winA, label, w.Metric), runnerUpA, opt.TieMargin) {
				continue
			}
			va, aok := lookupValue(eb, winA, label, w.Metric)
			vb, bok := lookupValue(eb, winB, label, w.Metric)
			if aok && bok && withinMargin(va, vb, opt.TieMargin) {
				continue
			}
		}
		va, _ := lookupValue(ea, winA, label, w.Metric)
		vb, _ := lookupValue(eb, winB, label, w.Metric)
		r.Flips = append(r.Flips, Flip{
			Experiment: ea.Name, Label: label, Metric: w.Metric,
			WinnerA: winA, WinnerB: winB, ValueA: va, ValueB: vb,
		})
	}
}

func withinMargin(a, b, margin float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return true
	}
	return math.Abs(a-b) <= margin*scale
}

// winnerAt returns the winning system and the runner-up's value at one
// point label, per the winner spec. ok is false with <2 contenders.
func winnerAt(e *Experiment, label string, w *Winner) (system string, runnerUp float64, ok bool) {
	type entry struct {
		sys string
		v   float64
	}
	var entries []entry
	for i := range e.Series {
		if p := e.Series[i].point(label); p != nil {
			if v, present := p.Metrics[w.Metric]; present {
				entries = append(entries, entry{e.Series[i].System, v})
			}
		}
	}
	if len(entries) < 2 {
		return "", 0, false
	}
	better := func(x, y float64) bool {
		if w.LowerIsBetter {
			return x < y
		}
		return x > y
	}
	best, second := entries[0], entries[1]
	if better(second.v, best.v) {
		best, second = second, best
	}
	for _, en := range entries[2:] {
		switch {
		case better(en.v, best.v):
			second = best
			best = en
		case better(en.v, second.v):
			second = en
		}
	}
	return best.sys, second.v, true
}

func valueAt(e *Experiment, system, label, metric string) float64 {
	v, _ := lookupValue(e, system, label, metric)
	return v
}

func lookupValue(e *Experiment, system, label, metric string) (float64, bool) {
	s := findSeries(e, system)
	if s == nil {
		return 0, false
	}
	p := s.point(label)
	if p == nil {
		return 0, false
	}
	v, ok := p.Metrics[metric]
	return v, ok
}

// diffAttacks compares the attack matrices: any verdict change is a
// claim flip (security properties must never silently change).
func diffAttacks(r *DiffReport, a, b *Artifact) {
	if len(a.Attacks) == 0 {
		return
	}
	bySystem := make(map[string]AttackVerdict, len(b.Attacks))
	for _, v := range b.Attacks {
		bySystem[v.System] = v
	}
	for _, va := range a.Attacks {
		vb, ok := bySystem[va.System]
		if !ok {
			r.Missing = append(r.Missing, fmt.Sprintf("attack verdict for %q", va.System))
			continue
		}
		for _, f := range []struct {
			name string
			a, b bool
		}{
			{"sub_page_protect", va.SubPageProtect, vb.SubPageProtect},
			{"no_vuln_window", va.NoVulnWindow, vb.NoVulnWindow},
			{"single_core_perf", va.SingleCorePerf, vb.SingleCorePerf},
			{"multi_core_perf", va.MultiCorePerf, vb.MultiCorePerf},
		} {
			r.Compared++
			if f.a != f.b {
				r.Flips = append(r.Flips, Flip{
					Experiment: "table1", Label: va.System, Metric: f.name,
					WinnerA: fmt.Sprintf("%v", f.a), WinnerB: fmt.Sprintf("%v", f.b),
				})
			}
		}
	}
}
