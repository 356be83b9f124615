package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/stats"
)

// manifest is BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workDecl   `json:"workloads"`
	EndToEnd   []metricDecl `json:"end_to_end"`
	PerLayer   []metricDecl `json:"per_layer"`
}

type workDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// expectedManifest is what BENCHMARK.json must say for this code.
func expectedManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 30,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workDecl{w.name, w.why})
	}
	return m
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json keys %v, want exactly %v", names, want)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := expectedManifest(); !reflect.DeepEqual(got, want) {
		b, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json does not match the code; want:\n%s", b)
	}
}

func TestMetricDeclarations(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl{}, endToEnd...), perLayer()...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
		if d.Unit == "" || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %s: bad name or unit %q", d.Name, d.Unit)
		}
	}
	setup := false
	for _, d := range endToEnd {
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", d.Name)
		}
		setup = setup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" && *d.Bound == 0.25
	}
	if !setup {
		t.Error("setup_s must be declared in s, lower better, with the largest bound")
	}
	for _, d := range perLayer() {
		if d.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
}

// withUnits is what keeps the printed metrics and the declarations in
// step at run time: it refuses a missing or an undeclared metric.
func TestWithUnitsRequiresExactlyTheDeclaredMetrics(t *testing.T) {
	vals := map[string]float64{}
	for _, d := range endToEnd {
		vals[d.Name] = 1
	}
	out, err := withUnits(endToEnd, vals)
	if err != nil || len(out) != len(endToEnd) || out["setup_s"].Unit != "s" {
		t.Fatalf("withUnits = %v, %v", out, err)
	}
	vals["surprise_ms"] = 1
	if _, err := withUnits(endToEnd, vals); err == nil {
		t.Error("an undeclared metric was accepted")
	}
	delete(vals, "surprise_ms")
	delete(vals, "setup_s")
	if _, err := withUnits(endToEnd, vals); err == nil {
		t.Error("a missing metric was accepted")
	}
}

// The traced run's metrics come from the probes and simd's farm figures;
// together they must be exactly perLayer().
func TestTracedMetricsAreDeclared(t *testing.T) {
	artifact, err := os.ReadFile("ref/paper-smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	vals, err := runProbes(&probeEnv{dir: t.TempDir(), artifact: artifact}, true, newTracer(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second && !raceEnabled {
		t.Errorf("quick probes took %v, want under 2s", d)
	}
	for name, v := range vals {
		if v < 0 || (v == 0 && !strings.HasSuffix(name, "_allocs")) {
			t.Errorf("probe metric %s = %v", name, v)
		}
	}
	h := &daemon.Health{Metrics: obs.Snapshot{
		Counters:      map[string]uint64{"farm.executed": 236, "farm.steals": 5},
		Gauges:        map[string]float64{"farm.queue_hwm": 234},
		Distributions: map[string]stats.Summary{"farm.worker_util_pct": {Mean: 99}},
	}}
	farm := farmFigures(h)
	if farm["farm.points"] != 236 || farm["farm.util_pct"] != 99 || farm["farm.queue_hwm"] != 234 || farm["farm.steals"] != 5 {
		t.Errorf("farmFigures = %v", farm)
	}
	for k, v := range farm {
		vals[k] = v
	}
	if _, err := withUnits(perLayer(), vals); err != nil {
		t.Error(err)
	}
}
