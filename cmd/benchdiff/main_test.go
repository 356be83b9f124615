package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/daemon"
	"repro/internal/report"
	"repro/internal/tenant"
)

func art(tool string, window float64, names ...string) *report.Artifact {
	a := report.New(tool, window, nil)
	for _, n := range names {
		a.Add(report.Experiment{Name: n})
	}
	return a
}

// systemsAndLabels lists an experiment's series systems and the labels
// of its first series.
func systemsAndLabels(e *report.Experiment) (systems, labels []string) {
	for _, s := range e.Series {
		systems = append(systems, s.System)
	}
	if len(e.Series) > 0 {
		for _, p := range e.Series[0].Points {
			labels = append(labels, p.Label)
		}
	}
	return systems, labels
}

// TestGatesManifest: the manifest lists every committed baseline once,
// and each baseline holds exactly what its gate's spec selects, so the
// gate regenerates what the baseline holds.
func TestGatesManifest(t *testing.T) {
	gates, err := loadGates("../../ci/gates.json")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob("../../ci/*.json")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]int{}
	for _, g := range gates {
		listed[g.Baseline]++
	}
	for _, p := range paths {
		if filepath.Base(p) != "gates.json" && listed[p] != 1 {
			t.Errorf("%s is listed %d times in the manifest, want once", p, listed[p])
		}
		delete(listed, p)
	}
	for p := range listed {
		t.Errorf("the manifest lists %s, which is not a ci/*.json file", p)
	}
	for _, g := range gates {
		base, err := report.Load(g.Baseline)
		if err != nil {
			t.Fatal(err)
		}
		var got, want []string
		for _, e := range base.Experiments {
			if e.Name != "farm" {
				got = append(got, e.Name)
			}
		}
		s := g.Spec
		switch s.Tool {
		case "reproduce":
			want = []string{"table1"}
			for _, sec := range bench.Suite(!s.SkipSensitivity) {
				want = append(want, sec.Name)
			}
			if s.Experiments != "all" {
				selected := strings.Split(s.Experiments, ",")
				want = slices.DeleteFunc(want, func(n string) bool { return !slices.Contains(selected, n) })
			}
		case "chaosbench":
			for _, sc := range chaos.Scenarios {
				if s.Scenarios == "all" || slices.Contains(strings.Split(s.Scenarios, ","), sc.Name) {
					want = append(want, "chaos-"+sc.Name)
				}
			}
		case "attackbench":
			want = []string{"campaign"}
			systems, payloads := systemsAndLabels(base.Experiment("campaign"))
			if s.Systems != "all" || s.Payloads != "all" ||
				!slices.Equal(systems, bench.ExtendedSystems) || !slices.Equal(payloads, campaign.Payloads()) {
				t.Errorf("%s: spec %+v, matrix %v x %v: want the full matrix", g.Baseline, s, systems, payloads)
			}
		case "tenantbench":
			want = []string{"tenantmatrix", "tenantsweep"}
			schemes, attacks := systemsAndLabels(base.Experiment("tenantmatrix"))
			if s.Schemes != "all" || s.Attacks != "all" || s.Tenants != "all" || s.Frames != "all" ||
				!slices.Equal(schemes, tenant.Schemes()) || !slices.Equal(attacks, tenant.Attacks()) {
				t.Errorf("%s: spec %+v, matrix %v x %v: want the full matrix", g.Baseline, s, schemes, attacks)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: baseline holds %v, its %s spec selects %v", g.Baseline, got, s.Tool, want)
		}
		if base.Tool != s.Tool || base.WindowMs != s.WindowMs && s.WindowMs != 0 {
			t.Errorf("%s: baseline is %s at %g ms, spec %+v", g.Baseline, base.Tool, base.WindowMs, s)
		}
	}
}

// TestGateRuleCatchesModelChange: changes the 10% default lets through
// (a metric moved by 1e-6, a winner swapped within 2%) fail the gate.
func TestGateRuleCatchesModelChange(t *testing.T) {
	point := func(copyGbps, strictGbps float64) *report.Artifact {
		a := report.New("reproduce", 1, nil)
		a.Add(report.Experiment{Name: "fig3", Winner: &report.Winner{Metric: "gbps"}, Series: []report.Series{
			{System: "copy", Points: []report.Point{{Label: "1500", Metrics: map[string]float64{"gbps": copyGbps}}}},
			{System: "strict", Points: []report.Point{{Label: "1500", Metrics: map[string]float64{"gbps": strictGbps}}}},
		}})
		return a
	}
	dir := t.TempDir()
	base := point(10, 9.9)
	basePath := filepath.Join(dir, "base.json")
	if err := base.WriteFile(basePath); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		cand  *report.Artifact
		flips int
	}{
		{"metric moved by 1e-6", point(10*(1+1e-6), 9.9), 0},
		{"winner swapped within 2%", point(9.9, 10), 1},
	} {
		candPath := filepath.Join(dir, "cand.json")
		if err := tc.cand.WriteFile(candPath); err != nil {
			t.Fatal(err)
		}
		if r, err := report.Diff(base, tc.cand, gateRule); err != nil || r.OK() || len(r.Flips) != tc.flips {
			t.Errorf("%s: gate rule report %+v (%v), want a failure with %d flips", tc.name, r, err, tc.flips)
		}
		if code := run([]string{"-q", basePath, candPath}); code != 0 {
			t.Errorf("%s: two-artifact defaults exit %d, want 0 (the defaults allow it)", tc.name, code)
		}
	}
	if r, err := report.Diff(base, point(10*(1+1e-12), 9.9), gateRule); err != nil || !r.OK() {
		t.Errorf("last-bit float noise failed the gate rule (%v)", err)
	}
}

// TestGateMode runs a one-gate manifest through -write, a pass, a
// second -write that keeps the file, and a perturbed baseline.
func TestGateMode(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "gates.json")
	baseline := filepath.Join(dir, "chaos.json")
	if err := os.WriteFile(manifest, []byte(`[{"baseline": "chaos.json",
		"spec": {"tool": "chaosbench", "window_ms": 1, "scenarios": "faultstorm"}}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{manifest}); code != 1 {
		t.Fatalf("missing baseline: exit %d, want 1", code)
	}
	if code := run([]string{"-write", manifest}); code != 0 {
		t.Fatalf("-write: exit %d", code)
	}
	if code := run([]string{"-q", manifest}); code != 0 {
		t.Fatalf("rerun: exit %d", code)
	}
	// A passing gate's file keeps its bytes: a trailing newline, which a
	// rewrite would drop, survives a second -write.
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(baseline, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-write", manifest}); code != 0 {
		t.Fatalf("second -write: exit %d", code)
	}
	if again, err := os.ReadFile(baseline); err != nil || string(again) != string(data) {
		t.Fatalf("-write rewrote a passing baseline (%v)", err)
	}

	base, err := report.Load(baseline)
	if err != nil {
		t.Fatal(err)
	}
	base.Experiments[0].Series[0].Points[0].Metrics["gbps"] *= 1 + 1e-6
	if err := base.WriteFile(baseline); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{manifest}); code != 1 {
		t.Fatalf("perturbed baseline: exit %d, want 1", code)
	}
	if code := run([]string{"-write", manifest}); code != 0 {
		t.Fatalf("-write over a failing gate: exit %d", code)
	}
	if code := run([]string{"-q", manifest}); code != 0 {
		t.Fatalf("rewritten baseline: exit %d", code)
	}
}

func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`[{"baseline": "x.json", "spec": {"tool": "chaosbench", "cores": 1000}}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	typo := filepath.Join(dir, "typo.json")
	if err := os.WriteFile(typo, []byte(`[{"baseline": "x.json", "spec": {"tool": "chaosbench", "windw_ms": 1}}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`[]`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{bad},
		{typo},
		{empty},
		{filepath.Join(dir, "missing.json")},
		{"-tol", "0.5", "../../ci/gates.json"},
		{"-allow-missing", "../../ci/gates.json"},
		{"-write", "-watch", "../../ci/gates.json"},
		{"-write", "a.json", "b.json"},
		{},
	} {
		if code := run(args); code != 2 {
			t.Errorf("benchdiff %v: exit %d, want 2", args, code)
		}
	}
}

func TestDiffAndPrint(t *testing.T) {
	a := art("reproduce", 1, "fig3")
	if !diffAndPrint("", a, a, report.DiffOptions{}, true) {
		t.Error("identical artifacts failed the gate")
	}
	// A candidate missing a baseline experiment fails the gate.
	if diffAndPrint("x.json: ", a, art("reproduce", 1), report.DiffOptions{}, false) {
		t.Error("missing experiment passed the gate")
	}
}

func TestWatchLoopAgainstDaemon(t *testing.T) {
	dir := t.TempDir()
	sock := filepath.Join(dir, "d.sock")
	d, err := daemon.New(daemon.Config{
		Socket:      sock,
		StoreDir:    filepath.Join(dir, "store"),
		Parallel:    2,
		Fingerprint: "test",
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve()
	t.Cleanup(d.Shutdown)
	c := &daemon.Client{Socket: sock}
	if err := c.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Compute the baseline through the daemon, then re-gate it from a
	// manifest for two rounds: the same spec is a store hit and must
	// compare clean under the gate rule.
	spec := daemon.RunSpec{Tool: "chaosbench", Seed: 1, WindowMs: 1, Scenarios: "faultstorm"}
	resp, err := c.Run(spec, 0, false, true)
	if err != nil || !resp.OK {
		t.Fatalf("seeding baseline: %v %+v", err, resp)
	}
	if err := os.WriteFile(filepath.Join(dir, "baseline.json"), resp.Artifact, 0o644); err != nil {
		t.Fatal(err)
	}
	manifest, err := json.Marshal([]gate{{Baseline: "baseline.json", Spec: spec}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "gates.json")
	if err := os.WriteFile(path, manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-watch", "-q", "-count", "2", "-interval", "0s", "-socket", sock, path}); code != 0 {
		t.Fatalf("watch: exit %d", code)
	}
	if code := run([]string{"-watch", "-count", "1", "-socket", filepath.Join(dir, "none.sock"), path}); code != 1 {
		t.Fatalf("watch without a daemon: exit %d, want 1", code)
	}
}
