package daemon

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestCanonList(t *testing.T) {
	for in, want := range map[string]string{
		"":                        "all",
		"all":                     "all",
		" , ":                     "all",
		" strict , copy ":         "strict,copy",
		"copy,strict,copy":        "copy,strict",
		"b,a":                     "b,a", // list order is output order
		"faultstorm,,":            "faultstorm",
		" faultstorm ,faultstorm": "faultstorm",
	} {
		if got := canonList(in); got != want {
			t.Errorf("canonList(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNormalizeIsIdempotent(t *testing.T) {
	for _, s := range []RunSpec{
		{Tool: "reproduce", Experiments: "fig3, table1"},
		{Tool: "chaosbench", Scenarios: "poolsqueeze,faultstorm"},
		{Tool: "attackbench", Payloads: "stale-read", Systems: " copy,strict"},
		{Tool: "tenantbench", Tenants: "016,2", Frames: "128"},
		// A FuzzRequest finding: "7,007" became "7,7", then "7".
		{Tool: "tenantbench", Tenants: "16,016,2", Frames: "7,007,+7"},
	} {
		n, err := s.Normalize()
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		again, err := n.Normalize()
		if err != nil || again != n {
			t.Errorf("Normalize(%+v) = %+v, renormalized %+v (%v)", s, n, again, err)
		}
	}
}

func TestNormalizeUnknownExperimentListsKnownNames(t *testing.T) {
	_, err := RunSpec{Tool: "reproduce", Experiments: "fig99,fig3,bogus"}.Normalize()
	if err == nil {
		t.Fatal("unknown experiments accepted")
	}
	for _, want := range []string{"unknown experiment(s) bogus,fig99", "(have: table1,fig1,", "sensitivity"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestNormalizeRejectsUnrunnableNumbers: every number Normalize accepts
// is one the model can run.
func TestNormalizeRejectsUnrunnableNumbers(t *testing.T) {
	for _, s := range []RunSpec{
		{Tool: "reproduce", WindowMs: math.NaN()},
		{Tool: "reproduce", WindowMs: math.Inf(1)},
		{Tool: "reproduce", WindowMs: -1},
		{Tool: "reproduce", WindowMs: 1e12},
		{Tool: "chaosbench", WindowMs: math.NaN()},
		{Tool: "chaosbench", Cores: 1 << 30},
		{Tool: "chaosbench", Cores: 225},
		{Tool: "tenantbench", Tenants: "1000000000"},
		{Tool: "tenantbench", Tenants: "32769"},
		{Tool: "tenantbench", Frames: "1000000000"},
		{Tool: "tenantbench", Frames: "65536"},
		{Tool: "tenantbench", Frames: "1"}, // shorter than the length header
	} {
		if n, err := s.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) = %+v, want an error", s, n)
		}
	}
	for _, s := range []RunSpec{
		{Tool: "reproduce", WindowMs: 1e10},
		{Tool: "chaosbench", Cores: 224},
		{Tool: "tenantbench", Tenants: "32768", Frames: "2,65535"},
	} {
		if _, err := s.Normalize(); err != nil {
			t.Errorf("Normalize(%+v): %v", s, err)
		}
	}
}

// TestNormalizeKeepsGateSpecs pins the normalized bytes of the specs the
// CI gates (ci/gates.json, in its order), daemon-smoke and the benchmark
// send: their store keys must not move.
func TestNormalizeKeepsGateSpecs(t *testing.T) {
	data, err := os.ReadFile("../../ci/gates.json")
	if err != nil {
		t.Fatal(err)
	}
	var gates []struct {
		Spec RunSpec `json:"spec"`
	}
	if err := json.Unmarshal(data, &gates); err != nil {
		t.Fatal(err)
	}
	specs := []RunSpec{{Tool: "chaosbench", Seed: 7, WindowMs: 4}} // daemon-smoke's drain run
	for _, g := range gates {
		specs = append(specs, g.Spec)
	}
	want := []string{
		`{"tool":"chaosbench","seed":7,"window_ms":4,"cores":2,"system":"strict","scenarios":"all"}`,
		`{"tool":"reproduce","window_ms":1,"skip_sensitivity":true,"experiments":"all"}`,
		`{"tool":"reproduce","window_ms":2,"skip_sensitivity":true,"experiments":"fig1ext"}`,
		`{"tool":"chaosbench","seed":1,"window_ms":2,"cores":2,"system":"strict","scenarios":"all"}`,
		`{"tool":"attackbench","seed":1,"payloads":"all","systems":"all"}`,
		`{"tool":"tenantbench","seed":1,"schemes":"all","attacks":"all","tenants":"all","frames":"all"}`,
	}
	if len(specs) != len(want) {
		t.Fatalf("ci/gates.json has %d gates, want %d", len(gates), len(want)-1)
	}
	for i, s := range specs {
		n, err := s.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want[i] {
			t.Errorf("Normalize(%+v) = %s, want %s", s, got, want[i])
		}
	}
}
