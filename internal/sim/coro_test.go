package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// runRecovering runs e until `until` and returns what panicked out of Run.
func runRecovering(e *Engine, until uint64) (r any) {
	defer func() { r = recover() }()
	e.Run(until)
	return nil
}

// TestCoroutineProcPanicReachesRunCaller: a panic in simulated code
// propagates out of Run with its original value, not a copy or a wrapper.
func TestCoroutineProcPanicReachesRunCaller(t *testing.T) {
	want := errors.New("proc bug")
	e := NewEngine()
	e.Spawn("bystander", 0, 0, func(p *Proc) {
		for {
			p.Work("w", 10)
		}
	})
	e.Spawn("bug", 1, 0, func(p *Proc) {
		p.Work("w", 55)
		panic(want)
	})
	if r := runRecovering(e, 1000); r != want {
		t.Fatalf("Run raised %v, want %v", r, want)
	}
	e.Stop()
}

// TestCoroutineCallbackPanicReachesRunCaller: callbacks run on Run's own
// loop, so their panics reach Run's caller unchanged too.
func TestCoroutineCallbackPanicReachesRunCaller(t *testing.T) {
	want := errors.New("callback bug")
	e := NewEngine()
	e.Spawn("bystander", 0, 0, func(p *Proc) {
		for {
			p.Work("w", 10)
		}
	})
	e.Schedule(200, func(uint64) { panic(want) })
	if r := runRecovering(e, 1000); r != want {
		t.Fatalf("Run raised %v, want %v", r, want)
	}
	e.Stop()
}

// spawnMix spawns one proc in each state Stop must handle at Run(1000):
// blocked forever, looping, finished, and spawned beyond the window so
// it never starts.
func spawnMix(t *testing.T, e *Engine) {
	c := NewCond("never")
	e.Spawn("blocked", 0, 0, func(p *Proc) {
		c.WaitUntil(p, func() bool { return false })
	})
	e.Spawn("looping", 1, 0, func(p *Proc) {
		for {
			p.Work("w", 10)
		}
	})
	e.Spawn("finished", 2, 0, func(p *Proc) { p.Work("w", 10) })
	e.Spawn("late", 3, 5000, func(p *Proc) { t.Error("a proc spawned beyond the window ran") })
}

// TestCoroutineStopMarksEveryProcDone: after Stop every proc is done,
// including one that never started and the procs left suspended when a
// panic escaped Run.
func TestCoroutineStopMarksEveryProcDone(t *testing.T) {
	e := NewEngine()
	spawnMix(t, e)
	e.Spawn("bug", 4, 100, func(p *Proc) { panic("bug") })
	if r := runRecovering(e, 1000); r != "bug" {
		t.Fatalf("Run raised %v, want bug", r)
	}
	e.Stop()
	for _, p := range e.Procs() {
		if !p.done {
			t.Errorf("proc %s not done after Stop", p.Name())
		}
	}
}

// TestCoroutineStopReleasesGoroutines: every coroutine's goroutine is
// gone once Stop returns.
func TestCoroutineStopReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	spawnMix(t, e)
	e.Run(1000)
	if n := runtime.NumGoroutine(); n <= before {
		t.Fatalf("%d goroutines with live procs, %d before: the test cannot see a leak", n, before)
	}
	e.Stop()
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		t.Errorf("%d goroutines after Stop, %d before", n, before)
	}
}

// TestCoroutineStopRaisesUnwindPanic: a proc whose deferred call panics
// while Stop unwinds it makes Stop panic with that value, and the procs
// after it are still stopped.
func TestCoroutineStopRaisesUnwindPanic(t *testing.T) {
	want := errors.New("panic during unwind")
	e := NewEngine()
	c := NewCond("never")
	e.Spawn("unwinder", 0, 0, func(p *Proc) {
		defer func() { panic(want) }()
		c.WaitUntil(p, func() bool { return false })
	})
	spawnMix(t, e)
	e.Run(1000)
	func() {
		defer func() {
			if r := recover(); r != want {
				t.Errorf("Stop raised: %v, want %v", r, want)
			}
		}()
		e.Stop()
	}()
	for _, p := range e.Procs() {
		if !p.done {
			t.Errorf("proc %s not done after Stop", p.Name())
		}
	}
}
