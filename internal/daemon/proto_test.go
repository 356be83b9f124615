package daemon

import (
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
