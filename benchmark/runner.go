package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/report"
)

// toolTimeout bounds one tool process; no pass comes near it.
const toolTimeout = 120 * time.Second

// runner holds what every workload needs.
type runner struct {
	root    string // repository root; the process runs from here
	refDir  string // committed reference artifacts
	bin     string // the built tools
	out     string // artifacts, profiles, stores and spans
	seed    int64
	seconds time.Duration
	tr      *tracer
	refs    map[string]*report.Artifact
}

// procResult is one finished tool process.
type procResult struct {
	wall, cpu time.Duration
	rssKB     int64
	err       error
}

// runTool runs one tool from the repository root to completion.
func (r *runner) runTool(parent int64, lane int, tool string, args ...string) procResult {
	ctx, cancel := context.WithTimeout(context.Background(), toolTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(r.bin, tool), args...)
	cmd.Dir = r.root
	cmd.SysProcAttr = dieWithParent()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	end := time.Now()
	r.tr.record(r.tr.newID(), parent, tool, "process", lane, start, end, nil)
	res := procResult{wall: end.Sub(start)}
	if st := cmd.ProcessState; st != nil {
		res.cpu = st.UserTime() + st.SystemTime()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			res.rssKB = ru.Maxrss
		}
	}
	if err != nil {
		tail := stderr.Bytes()
		if len(tail) > 500 {
			tail = tail[len(tail)-500:]
		}
		res.err = fmt.Errorf("%s %v: %w: %s", tool, args, err, bytes.TrimSpace(tail))
	}
	return res
}

// dieWithParent makes a child process exit if the benchmark dies first,
// so an interrupted run leaves no tool or daemon behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// tally counts the operations of one workload run and what went wrong.
// Its methods may be called from several goroutines.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	maxDrift  int // simulated values off the oracle, maximum over operations
	problems  []string
}

// op records one attempted operation; a non-nil err marks it failed.
func (t *tally) op(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		t.note(err.Error())
	}
}

// drift records n simulated values that missed the oracle in one
// operation.
func (t *tally) drift(n int, what string) {
	if n == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.maxDrift = max(t.maxDrift, n)
	t.note(fmt.Sprintf("drift %d: %s", n, what))
}

// note keeps the first few problems for the report. Callers hold mu.
func (t *tally) note(s string) {
	if len(t.problems) < 10 {
		t.problems = append(t.problems, s)
	}
}

func (t *tally) correct() bool { return t.failed == 0 && t.maxDrift == 0 }

// checkArtifact loads an artifact and compares it with want. A file that
// does not load fails the operation; a difference is drift.
func (t *tally) checkArtifact(want *report.Artifact, path string) (*report.Artifact, error) {
	got, err := report.Load(path)
	if err != nil {
		return nil, err
	}
	if want != nil {
		n, what, err := drift(want, got)
		if err != nil {
			return nil, err
		}
		t.drift(n, filepath.Base(path)+": "+what)
	}
	return got, nil
}

// result is one workload run: the line the benchmark prints plus detail
// for people and for -compare.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Detail holds figures that are not declared metrics: sample counts,
	// sim_drift, failed_frac, raw times, and the workload's own breakdowns.
	Detail   map[string]float64 `json:"detail,omitempty"`
	Problems []string           `json:"problems,omitempty"`
}

// finish fills the outcome fields of a result from its tally.
func (res *result) finish(t *tally) {
	res.Correct = t.correct()
	res.Attempted = t.attempted
	res.Failed = t.failed
	res.Problems = t.problems
	if res.Detail == nil {
		res.Detail = map[string]float64{}
	}
	res.Detail["sim_drift"] = float64(t.maxDrift)
	if t.attempted > 0 {
		res.Detail["failed_frac"] = float64(t.failed) / float64(t.attempted)
	}
}
