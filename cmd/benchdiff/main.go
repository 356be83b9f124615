// Command benchdiff is the regression gate. Given the gate manifest, it
// runs every gate and compares each artifact with its committed baseline
// under the exact gate rule; given two artifacts, it compares them under
// adjustable tolerances.
//
//	benchdiff ci/gates.json                  # every gate, in-process (make smoke)
//	benchdiff -write ci/gates.json           # rewrite failing baselines (make baseline)
//	benchdiff -watch -count 1 ci/gates.json  # every gate, served by simd
//	benchdiff baseline.json candidate.json   # two artifacts, 10% default
//
// The manifest is a JSON list of {"baseline": path relative to the
// manifest, "spec": daemon.RunSpec}. Gates run in-process through
// daemon.Execute on one farm, or with -watch on a simd daemon
// (doc/DAEMON.md), whose store makes an unchanged tree re-verify in
// milliseconds.
//
// Exit status: 0 = pass, 1 = regression or claim flip, 2 = usage/load error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/daemon"
	"repro/internal/report"
)

// gateRule is how every gate compares a run with its baseline. The
// simulation is deterministic, so the tolerance only absorbs last-bit
// float differences; any real model change moves a metric past it.
var gateRule = report.DiffOptions{Tol: 1e-9, TieMargin: 1e-9}

// gate is one manifest entry: a committed baseline and the run that must
// reproduce it.
type gate struct {
	Baseline string         `json:"baseline"`
	Spec     daemon.RunSpec `json:"spec"`
}

type metricTolFlag map[string]float64

func (m metricTolFlag) String() string { return fmt.Sprint(map[string]float64(m)) }

func (m metricTolFlag) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want metric=tol, got %q", s)
	}
	t, err := strconv.ParseFloat(v, 64)
	if err != nil || t < 0 {
		return fmt.Errorf("bad tolerance in %q", s)
	}
	m[k] = t
	return nil
}

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole command; it returns the exit status.
func run(args []string) int {
	fs := flag.NewFlagSet("benchdiff", flag.ExitOnError)
	opts := report.DiffOptions{MetricTol: metricTolFlag{}}
	fs.Float64Var(&opts.Tol, "tol", 0.10, "default relative tolerance per metric (two artifacts)")
	fs.Float64Var(&opts.TieMargin, "tie", 0.02, "suppress winner flips when contenders are within this relative margin (two artifacts)")
	fs.Float64Var(&opts.AbsFloor, "abs-floor", 0, "ignore changes smaller than this absolute magnitude (two artifacts)")
	fs.BoolVar(&opts.IgnoreMissing, "allow-missing", false, "missing experiments/series/metrics are notes, not failures (two artifacts)")
	fs.Var(metricTolFlag(opts.MetricTol), "metric-tol", "per-metric tolerance override, metric=tol (repeatable, two artifacts)")
	quiet := fs.Bool("q", false, "print only the verdict lines")
	write := fs.Bool("write", false, "rewrite the baselines whose gate fails or whose file is missing (manifest)")
	watch := fs.Bool("watch", false, "fetch every gate's candidate from a simd daemon and re-gate on an interval (manifest)")
	socket := fs.String("socket", "/tmp/simd.sock", "simd daemon socket (-watch mode)")
	interval := fs.Duration("interval", 30*time.Second, "delay between rounds (-watch mode)")
	count := fs.Int("count", 0, "stop after this many rounds, 0 = forever (-watch mode)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: benchdiff [-q] [-write | -watch [-socket s] [-interval d] [-count n]] gates.json\n"+
			"       benchdiff [flags] baseline.json candidate.json\n")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)   // ExitOnError: a bad flag exits 2 and -h exits 0 before Parse returns
	var shaping []string // flags that only shape a two-artifact diff
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "tol", "tie", "abs-floor", "metric-tol", "allow-missing":
			shaping = append(shaping, "-"+f.Name)
		}
	})
	switch {
	case fs.NArg() == 2 && !*write && !*watch:
		var arts [2]*report.Artifact
		for i := range arts {
			var err error
			if arts[i], err = report.Load(fs.Arg(i)); err != nil {
				fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
				return 2
			}
		}
		if !diffAndPrint("", arts[0], arts[1], opts, *quiet) {
			return 1
		}
		return 0
	case fs.NArg() == 1 && len(shaping) > 0:
		fmt.Fprintf(os.Stderr, "benchdiff: a gate manifest takes no %s: gates use the exact gate rule\n",
			strings.Join(shaping, ", "))
	case fs.NArg() == 1 && !(*write && *watch):
		gates, err := loadGates(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			return 2
		}
		if *watch {
			return watchLoop(gates, *socket, *interval, *count, *quiet)
		}
		return runGates(gates, *write, *quiet)
	default:
		fs.Usage()
	}
	return 2
}

// loadGates reads a manifest, resolves each baseline against the
// manifest's directory and normalizes each spec.
func loadGates(path string) ([]gate, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var gates []gate
	if err := dec.Decode(&gates); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(gates) == 0 {
		return nil, fmt.Errorf("%s: no gates", path)
	}
	for i, g := range gates {
		gates[i].Baseline = filepath.Join(filepath.Dir(path), g.Baseline)
		if gates[i].Spec, err = g.Spec.Normalize(); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", path, gates[i].Baseline, err)
		}
	}
	return gates, nil
}

// runGates runs every gate in-process on one farm and compares each
// artifact with its baseline. With write, a failing gate's baseline is
// rewritten, and a passing gate's file keeps its bytes.
func runGates(gates []gate, write, quiet bool) int {
	farm := bench.NewFarm(0)
	defer farm.Close()
	status := 0
	for _, g := range gates {
		res, err := daemon.Execute(context.Background(), farm, g.Spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", g.Baseline, err)
			status = 1
			continue
		}
		base, err := report.Load(g.Baseline)
		if err == nil && diffAndPrint(g.Baseline+": ", base, res.Artifact, gateRule, quiet) {
			continue
		}
		if write {
			err = res.Artifact.WriteFile(g.Baseline)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		}
		if !write || err != nil {
			status = 1
			continue
		}
		fmt.Printf("%s: WROTE %d experiments\n", g.Baseline, len(res.Artifact.Experiments))
	}
	return status
}

// watchLoop re-gates every baseline against daemon-served candidates.
// The daemon's store makes an unchanged tree a cache hit, so the loop is
// cheap enough to leave running next to an edit-build cycle.
func watchLoop(gates []gate, socket string, interval time.Duration, count int, quiet bool) int {
	c := &daemon.Client{Socket: socket}
	status := 0
	for round := 1; count == 0 || round <= count; round++ {
		for _, g := range gates {
			if !watchGate(c, g, quiet) {
				status = 1
			}
		}
		if count == 0 || round < count {
			time.Sleep(interval)
		}
	}
	return status
}

// watchGate requests one gate's run from the daemon and compares it
// with the gate's baseline.
func watchGate(c *daemon.Client, g gate, quiet bool) bool {
	base, err := report.Load(g.Baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		return false
	}
	// noDegrade: a reduced-window preview is never graded as the candidate.
	resp, err := c.Run(g.Spec, 0, false, true)
	if err == nil && !resp.OK {
		err = fmt.Errorf("%s: %s", resp.ErrKind, resp.Err)
	}
	var cand *report.Artifact
	if err == nil {
		cand, err = report.Decode(bytes.NewReader(resp.Artifact))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: daemon: %s: %v\n", g.Baseline, err)
		return false
	}
	fmt.Printf("watch %s: %s candidate (cached %t, key %.12s)\n",
		time.Now().Format("15:04:05"), g.Spec.Tool, resp.Cached, resp.Key)
	return diffAndPrint(g.Baseline+": ", base, cand, gateRule, quiet)
}

// diffAndPrint compares candidate b with baseline a and prints the
// report (only its verdict line when quiet), with label before the
// verdict. It reports whether the comparison passed.
func diffAndPrint(label string, a, b *report.Artifact, opts report.DiffOptions, quiet bool) bool {
	r, err := report.Diff(a, b, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %s%v\n", label, err)
		return false
	}
	out := r.String()
	i := strings.LastIndex(strings.TrimSuffix(out, "\n"), "\n") + 1 // the verdict line
	if quiet {
		out, i = out[i:], 0
	}
	fmt.Print(out[:i] + label + out[i:])
	return r.OK()
}
