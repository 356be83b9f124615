package main

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/report"
)

// Every workload also reaches its runs through simd, the way the
// repository's daemon clients do. After a code change simd starts with a
// new fingerprint, so the first request for each run computes it and
// stores it: that is the workload's set-up. Later requests for the same
// runs, such as `benchdiff -watch` polling a baseline or `reproduce
// -daemon` repeating a report, are served from the store: those are the
// warm requests. Both send exactly the spec the one-shot flags describe
// (toolRun.spec), one request at a time.

// simdProc is a running simd child process.
type simdProc struct {
	cmd    *exec.Cmd
	client *daemon.Client
	stderr bytes.Buffer
	done   chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after done
}

// startSimd starts simd on a fresh store under dir and waits until it
// answers.
func (r *runner) startSimd(dir string) (*simdProc, error) {
	sock, err := socketPath(r.root, dir)
	if err != nil {
		return nil, err
	}
	s := &simdProc{client: &daemon.Client{Socket: sock}, done: make(chan struct{})}
	s.cmd = exec.Command(filepath.Join(r.bin, "simd"),
		"-socket", sock, "-store", filepath.Join(dir, "store"), "-parallel", "2", "-q")
	s.cmd.Dir = r.root
	s.cmd.Stderr = &s.stderr
	s.cmd.SysProcAttr = dieWithParent()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-s.done:
			return nil, fmt.Errorf("simd exited before it was ready: %v: %s", s.err, s.stderr.String())
		default:
		}
		if s.client.Ping() == nil {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("simd not ready after 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// socketPath names a unix socket in dir by a path relative to the
// repository root, which both sides run from: an absolute path could
// exceed the 108-byte socket address limit.
func socketPath(root, dir string) (string, error) {
	return filepath.Rel(root, filepath.Join(dir, "simd.sock"))
}

// stop drains simd with SIGTERM and waits for it to exit.
func (s *simdProc) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		select {
		case <-s.done:
		default:
			return err
		}
	}
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		return errors.New("simd did not drain within 30s; killed")
	}
	if s.err != nil {
		return fmt.Errorf("simd: %v: %s", s.err, s.stderr.String())
	}
	return nil
}

// replyErr is the failure a daemon reply reports, if any: an error, an
// overload or a degraded preview.
func replyErr(resp *daemon.Response) error {
	switch {
	case !resp.OK:
		return fmt.Errorf("daemon: %s: %s", resp.ErrKind, resp.Err)
	case resp.Degraded:
		return errors.New("daemon: degraded preview served")
	}
	return nil
}

// coldRound asks a freshly started simd for each of the workload's runs
// once, so that it computes and stores them, and checks every artifact
// against expect like a pass's. It returns the reply bytes that later warm
// requests must repeat. The round counts as one operation.
func (r *runner) coldRound(t *tally, s *simdProc, runs []toolRun, expect map[string]*report.Artifact, parent int64) ([][]byte, error) {
	start := time.Now()
	var replies [][]byte
	var err error
	for _, run := range runs {
		var resp *daemon.Response
		if resp, err = s.client.Run(run.specAt(r.seed), 0, false, true); err == nil {
			err = replyErr(resp)
		}
		if err == nil && resp.Cached {
			err = fmt.Errorf("%s: a fresh store served a memoized artifact", run.ref)
		}
		var a *report.Artifact
		if err == nil {
			a, err = report.Decode(bytes.NewReader(resp.Artifact))
		}
		if err != nil {
			err = fmt.Errorf("cold %s: %w", run.ref, err)
			break
		}
		if expect[run.ref] == nil {
			expect[run.ref] = a
		} else {
			n, what, derr := drift(expect[run.ref], a)
			if derr != nil {
				err = derr
				break
			}
			t.drift(n, "simd "+run.ref+": "+what)
		}
		replies = append(replies, resp.Artifact)
	}
	t.op(err)
	r.tr.record(r.tr.newID(), parent, "cold round", "setup", 0, start, time.Now(), nil)
	return replies, err
}

// warmRequests asks simd for the workload's runs in turn, one request at
// a time, until the deadline, and returns each reply's latency in ms. A
// reply must come from the store and repeat the cold round's bytes. next
// carries the turn from one call to the next.
func (r *runner) warmRequests(t *tally, s *simdProc, runs []toolRun, replies [][]byte, until time.Time,
	next *int, parent int64) []float64 {
	var lat []float64
	for time.Now().Before(until) {
		i := *next % len(runs)
		*next++
		start := time.Now()
		resp, err := s.client.Run(runs[i].specAt(r.seed), 0, false, true)
		end := time.Now()
		r.tr.record(r.tr.newID(), parent, runs[i].ref, "request", 1, start, end, map[string]any{"req": *next - 1})
		switch {
		case err != nil:
		case replyErr(resp) != nil:
			err = replyErr(resp)
		case !resp.Cached:
			err = errors.New("the daemon recomputed a stored run")
		case !bytes.Equal(resp.Artifact, replies[i]):
			t.drift(1, fmt.Sprintf("warm %s: reply differs from the cold round's", runs[i].ref))
		}
		if err != nil {
			err = fmt.Errorf("warm %s: %w", runs[i].ref, err)
		}
		t.op(err)
		if err == nil {
			lat = append(lat, ms(end.Sub(start)))
		}
	}
	return lat
}

// farmFigures reads simd's farm counters after its cold round.
func farmFigures(h *daemon.Health) map[string]float64 {
	m := h.Metrics
	return map[string]float64{
		"farm.points":    float64(m.Counters["farm.executed"]),
		"farm.util_pct":  m.Distributions["farm.worker_util_pct"].Mean,
		"farm.steals":    float64(m.Counters["farm.steals"]),
		"farm.queue_hwm": m.Gauges["farm.queue_hwm"],
	}
}
