package main

import (
	"fmt"
	"io"
	"math"
)

// verdict is the outcome of comparing one metric of one workload.
type verdict struct {
	workload, metric string
	a, b             float64 // medians
	spreadA, spreadB float64
	worse            float64 // share by which b is worse than a; negative when better
	outcome          string
}

// compareSets judges every end-to-end metric of every workload both sets
// ran untraced. When either set's own spread exceeds the metric's bound,
// the medians cannot settle it: the metric is "ok" only if every run of B
// beats every run of A, "regressed" if every run of B is worse than every
// run of A and B's median is worse by more than the bound, and
// "unresolved" otherwise. Within the bound's spread it is "ok" when B's
// median is no worse than A's by more than the bound, and "regressed"
// otherwise.
func compareSets(a, b *resultSet) []verdict {
	var out []verdict
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := metricRuns(a, w.name, d.Name), metricRuns(b, w.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict{workload: w.name, metric: d.Name, a: median(va), b: median(vb)}
			if len(va) > 1 {
				v.spreadA = spread(va)
			}
			if len(vb) > 1 {
				v.spreadB = spread(vb)
			}
			sign := 1.0
			if d.Better == "higher" {
				sign = -1
			}
			v.worse = sign * (v.b - v.a) / v.a
			wide := max(v.spreadA, v.spreadB) > *d.Bound
			switch {
			case wide && allWorse(vb, va, sign):
				v.outcome = "ok"
			case wide && allWorse(va, vb, sign) && v.worse > *d.Bound:
				v.outcome = "regressed"
			case wide:
				v.outcome = "unresolved"
			case v.worse <= *d.Bound:
				v.outcome = "ok"
			default:
				v.outcome = "regressed"
			}
			out = append(out, v)
		}
	}
	return out
}

// metricRuns collects one metric's values over a set's untraced runs of a
// workload.
func metricRuns(s *resultSet, workload, metric string) []float64 {
	var xs []float64
	for _, r := range s.Runs {
		if r.Workload == workload && !r.Trace {
			if m, ok := r.Metrics[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

// allWorse reports whether every value of b is worse than every value of a;
// allWorse(b, a) whether every value of b is better. sign is +1 when lower
// is better and -1 when higher is.
func allWorse(a, b []float64, sign float64) bool {
	bestB := math.Inf(1)
	for _, x := range b {
		bestB = min(bestB, sign*x)
	}
	for _, x := range a {
		if sign*x >= bestB {
			return false
		}
	}
	return true
}

// runCompare prints the comparison of two result-set files and returns the
// exit code: 0 when no metric regressed or is unresolved.
func runCompare(w io.Writer, pathA, pathB string) int {
	a, err := loadSet(pathA)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	b, err := loadSet(pathB)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	vs := compareSets(a, b)
	if len(vs) == 0 {
		fmt.Fprintln(w, "compare: the two sets share no untraced workload run")
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-12s %-14s %14s %14s %8s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "worse", "sprdA", "sprdB", "verdict")
	for _, v := range vs {
		fmt.Fprintf(w, "%-12s %-14s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%%  %s\n",
			v.workload, v.metric, v.a, v.b, 100*v.worse, 100*v.spreadA, 100*v.spreadB, v.outcome)
		if v.outcome != "ok" {
			code = 1
		}
	}
	return code
}
