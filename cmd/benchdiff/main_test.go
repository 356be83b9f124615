package main

import (
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/report"
)

func art(tool string, window float64, names ...string) *report.Artifact {
	a := report.New(tool, window, nil)
	for _, n := range names {
		a.Add(report.Experiment{Name: n})
	}
	return a
}

func TestSpecFromArtifact(t *testing.T) {
	spec, err := specFromArtifact(art("reproduce", 1, "table1", "fig3", "farm"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Experiments != "table1,fig3" || spec.WindowMs != 1 {
		t.Errorf("reproduce spec = %+v (farm must be dropped)", spec)
	}

	spec, err = specFromArtifact(art("chaosbench", 2, "chaos-faultstorm", "chaos-iovascan"), 7)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Scenarios != "faultstorm,iovascan" || spec.Seed != 7 {
		t.Errorf("chaos spec = %+v (chaos- prefix must be stripped)", spec)
	}

	if spec, err = specFromArtifact(art("attackbench", 50, "campaign"), 1); err != nil || spec.Payloads != "" {
		t.Errorf("attack spec = %+v, %v (full-matrix tools use daemon defaults)", spec, err)
	}

	if _, err := specFromArtifact(art("netbench", 1), 0); err == nil {
		t.Error("unmapped tool accepted")
	}
}

// TestSpecFromArtifactRoundTripsBaselines: for every committed gate, the
// normalized daemon spec names exactly the baseline's experiments (or
// scenarios), so benchdiff -watch regenerates what the baseline holds.
func TestSpecFromArtifactRoundTripsBaselines(t *testing.T) {
	paths, err := filepath.Glob("../../ci/*.json")
	if err != nil || len(paths) != 5 {
		t.Fatalf("want the 5 ci baselines, got %v (%v)", paths, err)
	}
	for _, p := range paths {
		base, err := report.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := specFromArtifact(base, 1)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		n, err := spec.Normalize()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		var want, got []string
		for _, e := range base.Experiments {
			if e.Name != "farm" {
				want = append(want, strings.TrimPrefix(e.Name, "chaos-"))
			}
		}
		switch n.Tool {
		case "reproduce":
			got = strings.Split(n.Experiments, ",")
			sort.Strings(want)
		case "chaosbench":
			got = strings.Split(n.Scenarios, ",")
		case "attackbench":
			got, want = []string{n.Payloads, n.Systems}, []string{"all", "all"}
		case "tenantbench":
			got = []string{n.Schemes, n.Attacks, n.Tenants, n.Frames}
			want = []string{"all", "all", "all", "all"}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: normalized %s spec names %v, baseline holds %v", p, n.Tool, got, want)
		}
	}
}

func TestDiffAndPrint(t *testing.T) {
	a := art("reproduce", 1, "fig3")
	if !diffAndPrint(a, a, report.DiffOptions{}, true, false) {
		t.Error("identical artifacts failed the gate")
	}
	// A candidate missing a baseline experiment fails the gate; with
	// exit=false that is a reported failure, not a process exit.
	if diffAndPrint(a, art("reproduce", 1), report.DiffOptions{}, false, false) {
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

	// Compute the baseline through the daemon, then re-gate it with
	// watchLoop: the same spec is a store hit and must diff clean (a
	// failing round would os.Exit(1) and abort the test binary).
	spec := daemon.RunSpec{Tool: "chaosbench", Seed: 1, WindowMs: 1, Scenarios: "faultstorm"}
	resp, err := c.Run(spec, 0, false, true)
	if err != nil || !resp.OK {
		t.Fatalf("seeding baseline: %v %+v", err, resp)
	}
	baseline := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(baseline, resp.Artifact, 0o644); err != nil {
		t.Fatal(err)
	}
	watchLoop(baseline, sock, 0, 2, 1, report.DiffOptions{Tol: 0.1}, true)
}
