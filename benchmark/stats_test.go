package main

import (
	"math"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	ten := []float64{10, 2, 3, 4, 5, 6, 7, 8, 9, 1}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"median odd", median([]float64{3, 1, 2}), 2},
		{"median even", median([]float64{4, 1, 3, 2}), 2.5},
		{"median one", median([]float64{7}), 7},
		{"mean", mean([]float64{1, 2, 6}), 3},
		{"p50", percentile(ten, 50), 5},
		{"p90", percentile(ten, 90), 9},
		{"p99", percentile(ten, 99), 10},
		{"p100", percentile(ten, 100), 10},
		{"p1", percentile(ten, 1), 1},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(mean(nil)) {
		t.Error("empty samples must give NaN")
	}
	if ten[0] != 10 {
		t.Error("median/percentile must not reorder their input")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{1, 3}, 0.5, 3.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestCompareSets(t *testing.T) {
	set := func(ms ...float64) *resultSet {
		s := &resultSet{}
		for _, v := range ms {
			s.Runs = append(s.Runs, result{Workload: "manycore", Metrics: map[string]metricValue{
				"pass_s_p50": {v, "s"},
			}})
		}
		return s
	}
	outcome := func(a, b *resultSet) string {
		for _, v := range compareSets(a, b) {
			if v.metric == "pass_s_p50" {
				return v.outcome
			}
		}
		return "absent"
	}
	steady := set(100, 101, 99, 100, 102)
	for _, c := range []struct {
		name string
		b    *resultSet
		want string
	}{
		{"4% slower, tight spreads", set(104, 103, 105, 104, 103), "ok"},
		{"faster, tight spreads", set(80, 79, 81, 80, 82), "ok"},
		{"30% slower, tight spreads", set(130, 131, 129, 130, 132), "regressed"},
		{"median within the bound, spread wider than it", set(80, 120, 100, 70, 130), "unresolved"},
		{"wide spread, every run better", set(60, 90, 70, 95, 50), "ok"},
		{"wide spread, every run worse by more than the bound", set(110, 160, 130, 170, 140), "regressed"},
	} {
		if got := outcome(steady, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if got := outcome(set(60, 100, 140, 90, 200), set(70, 150, 160, 110, 230)); got != "unresolved" {
		t.Errorf("a change beyond the bound inside a wider spread: %s, want unresolved", got)
	}
	for _, v := range compareSets(steady, steady) {
		if v.metric == "setup_s" {
			t.Error("a metric no run reports must be skipped")
		}
	}
}

func TestReferenceSpeed(t *testing.T) {
	// The host ran at half the reference speed around a measurement: its
	// times halve.
	if f := factor(2*refNominalMs, 2*refNominalMs); math.Abs(f-0.5) > 1e-12 {
		t.Errorf("factor = %v, want 0.5", f)
	}
	if f := factor(refNominalMs/2, 3*refNominalMs/2); math.Abs(f-1) > 1e-12 {
		t.Errorf("factor = %v, want 1 for samples that average to the nominal time", f)
	}
	sp := &speedometer{}
	if d := sp.sample(); d <= 0 || len(sp.samples) != 1 || sp.samples[0] != d {
		t.Errorf("reference task sample %v, samples %v", d, sp.samples)
	}
}
