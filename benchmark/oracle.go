package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/daemon"
	"repro/internal/report"
)

// refSeed is the tool seed the committed references were made at.
const refSeed = 1

// driftTol is the relative tolerance of the output oracle: it absorbs
// last-bit float noise (fig5a/5b/8a sum a map in iteration order) and
// catches any real change to a simulated number.
const driftTol = 1e-9

// toolRun is one tool invocation of a workload pass. ref names both its
// committed reference artifact and the file its output is written to.
// spec is the same run as a simd request: what `reproduce -daemon` or
// `simctl run` sends for the tool's flags.
type toolRun struct {
	ref    string
	tool   string
	args   []string // without -seed and -json
	seeded bool     // takes the workload seed
	spec   daemon.RunSpec
}

// argsAt returns the arguments for a run at seed.
func (t toolRun) argsAt(seed int64) []string {
	args := append([]string(nil), t.args...)
	if t.seeded {
		args = append(args, "-seed", fmt.Sprint(seed))
	}
	return args
}

// specAt returns the daemon request for a run at seed.
func (t toolRun) specAt(seed int64) daemon.RunSpec {
	s := t.spec
	if t.seeded {
		s.Seed = seed
	}
	return s
}

var (
	paperSmokeRun = toolRun{"paper-smoke", "reproduce", []string{"-window", "1", "-skip-sensitivity", "-parallel", "2"}, false,
		daemon.RunSpec{Tool: "reproduce", WindowMs: 1, SkipSensitivity: true, Experiments: "all"}}
	manycoreRun = toolRun{"manycore", "reproduce", []string{"-window", "2", "-skip-sensitivity", "-experiment", "fig1ext", "-parallel", "2"}, false,
		daemon.RunSpec{Tool: "reproduce", WindowMs: 2, SkipSensitivity: true, Experiments: "fig1ext"}}
	securityRuns = []toolRun{
		{"attack", "attackbench", []string{"-parallel", "2", "-q"}, true, daemon.RunSpec{Tool: "attackbench"}},
		{"tenant", "tenantbench", []string{"-parallel", "2", "-q"}, true, daemon.RunSpec{Tool: "tenantbench"}},
		{"chaos", "chaosbench", []string{"-parallel", "2", "-q"}, true, daemon.RunSpec{Tool: "chaosbench"}},
	}
	// refRuns are the tool runs with a committed reference.
	refRuns = append([]toolRun{paperSmokeRun, manycoreRun}, securityRuns...)
)

// loadRefs reads every committed reference artifact.
func loadRefs(dir string) (map[string]*report.Artifact, error) {
	refs := make(map[string]*report.Artifact, len(refRuns))
	for _, t := range refRuns {
		a, err := report.Load(filepath.Join(dir, t.ref+".json"))
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", t.ref, err)
		}
		refs[t.ref] = a
	}
	return refs, nil
}

// drift counts the simulated metrics, claim flips and missing entries by
// which got differs from want, and names the first few.
func drift(want, got *report.Artifact) (int, string, error) {
	d, err := report.Diff(want, got, report.DiffOptions{Tol: driftTol, TieMargin: driftTol})
	if err != nil {
		return 0, "", err
	}
	n := len(d.Changes) + len(d.Flips) + len(d.Missing)
	if n == 0 {
		return 0, "", nil
	}
	var lines []string
	for _, c := range d.Changes {
		lines = append(lines, c.String())
	}
	for _, f := range d.Flips {
		lines = append(lines, f.String())
	}
	lines = append(lines, d.Missing...)
	if len(lines) > 3 {
		lines = append(lines[:3], fmt.Sprintf("... %d more", len(lines)-3))
	}
	return n, strings.Join(lines, "; "), nil
}

// stripHost removes what differs between two runs of identical code — the
// creation stamp, wall times and the farm's scheduling table — so that a
// committed reference changes only when a simulated number does.
func stripHost(a *report.Artifact) {
	a.CreatedAt = ""
	exps := a.Experiments[:0]
	for _, e := range a.Experiments {
		if e.Name == "farm" {
			continue
		}
		e.WallMs = 0
		exps = append(exps, e)
	}
	a.Experiments = exps
}

// writeRefs regenerates the committed references at refSeed from the
// current code. Run it only after an intentional change to the model.
func (r *runner) writeRefs() error {
	for _, t := range refRuns {
		path := filepath.Join(r.out, t.ref+".json")
		res := r.runTool(0, 0, t.tool, append(t.argsAt(refSeed), "-json", path)...)
		if res.err != nil {
			return res.err
		}
		a, err := report.Load(path)
		if err != nil {
			return err
		}
		stripHost(a)
		var buf bytes.Buffer
		if err := a.Encode(&buf); err != nil {
			return err
		}
		dst := filepath.Join(r.refDir, t.ref+".json")
		if err := os.WriteFile(dst, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", dst)
	}
	return nil
}
