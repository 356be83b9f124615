package main

import "fmt"

// metricDecl declares one metric exactly as BENCHMARK.json lists it.
// Bound is the share of the baseline median by which an end-to-end metric
// may worsen before a change counts as a regression; per-layer metrics
// have none.
type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEnd are the metrics a user of the tools and the daemon sees. Every
// workload reports all of them, measured with tracing off: a pass is the
// workload's one-shot tools run back to back, a warm request is simd
// serving one of the workload's runs from its store, and set-up is simd
// started on a fresh store computing the workload's runs once. Times are
// reported at reference host speed (hostref.go).
var endToEnd = []metricDecl{
	{"pass_s_p50", "s", "lower", bound(0.10)},
	{"pass_cpu_s_p50", "s", "lower", bound(0.10)},
	{"rss_peak_mb", "MB", "lower", bound(0.10)},
	{"warm_ms_p90", "ms", "lower", bound(0.10)},
	{"setup_s", "s", "lower", bound(0.25)},
}

// farmMetrics are simd's sweep-farm figures for computing the workload's
// runs once.
var farmMetrics = []metricDecl{
	{"farm.points", "count", "lower", nil},
	{"farm.util_pct", "%", "higher", nil},
	{"farm.steals", "count", "lower", nil},
	{"farm.queue_hwm", "count", "lower", nil},
}

// perLayer lists the traced run's metrics: each probe's time and
// allocations per operation, and the farm figures.
func perLayer() []metricDecl {
	var out []metricDecl
	for _, p := range probes {
		out = append(out,
			metricDecl{p.name, probeUnit(p.name), "lower", nil},
			metricDecl{allocsName(p.name), "allocs/op", "lower", nil})
	}
	return append(out, farmMetrics...)
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches the declared units to measured values, and fails
// unless the values are exactly the declared metrics.
func withUnits(decls []metricDecl, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}
