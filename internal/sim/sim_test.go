package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestWorkAdvancesClockAndBusy(t *testing.T) {
	e := NewEngine()
	var p1 *Proc
	p1 = e.Spawn("w", 0, 0, func(p *Proc) {
		p.Work("a", 100)
		p.Work("b", 50)
		p.Charge("a", 25)
	})
	e.Run(1_000_000)
	if p1.Now() != 175 {
		t.Errorf("clock = %d, want 175", p1.Now())
	}
	if p1.Busy() != 175 {
		t.Errorf("busy = %d, want 175", p1.Busy())
	}
	if p1.TaggedCycles("a") != 125 || p1.TaggedCycles("b") != 50 {
		t.Errorf("tags = %v", p1.Tagged())
	}
}

func TestSleepIsIdle(t *testing.T) {
	e := NewEngine()
	p1 := e.Spawn("s", 0, 0, func(p *Proc) {
		p.Work("w", 10)
		p.Sleep(1000)
		p.Work("w", 10)
	})
	e.Run(1_000_000)
	if p1.Now() != 1020 {
		t.Errorf("clock = %d, want 1020", p1.Now())
	}
	if p1.Busy() != 20 {
		t.Errorf("busy = %d, want 20 (sleep must not count)", p1.Busy())
	}
}

func TestProcsInterleaveInTimestampOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", 0, 0, func(p *Proc) {
		p.Work("w", 100)
		order = append(order, "a@100")
		p.Work("w", 200) // now at 300
		order = append(order, "a@300")
	})
	e.Spawn("b", 1, 0, func(p *Proc) {
		p.Work("w", 150)
		order = append(order, "b@150")
		p.Work("w", 250) // now at 400
		order = append(order, "b@400")
	})
	e.Run(1_000_000)
	want := []string{"a@100", "b@150", "a@300", "b@400"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order[%d] = %s, want %s (full: %v)", i, order[i], want[i], order)
		}
	}
}

func TestRunStopsAtLimit(t *testing.T) {
	e := NewEngine()
	steps := 0
	e.Spawn("loop", 0, 0, func(p *Proc) {
		for {
			p.Work("w", 100)
			steps++
		}
	})
	end := e.Run(1000)
	if end != 1000 {
		t.Errorf("end = %d", end)
	}
	if steps < 9 || steps > 11 {
		t.Errorf("steps = %d, want ~10", steps)
	}
	e.Stop()
}

func TestScheduleCallbacks(t *testing.T) {
	e := NewEngine()
	var fired []uint64
	e.Schedule(500, func(now uint64) { fired = append(fired, now) })
	e.Schedule(100, func(now uint64) {
		fired = append(fired, now)
		e.Schedule(now+50, func(now2 uint64) { fired = append(fired, now2) })
	})
	e.Run(1_000_000)
	if len(fired) != 3 || fired[0] != 100 || fired[1] != 150 || fired[2] != 500 {
		t.Errorf("fired = %v", fired)
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	tm := e.ScheduleTimer(100, func(uint64) { ran = true })
	e.Schedule(50, func(uint64) { tm.Cancel() })
	e.Run(1000)
	if ran || tm.Fired() {
		t.Error("cancelled timer fired")
	}
	if !tm.Cancelled() {
		t.Error("timer should report cancelled")
	}
}

func TestSpinlockUncontended(t *testing.T) {
	e := NewEngine()
	l := NewSpinlock("l", "spinlock", LockCosts{Uncontended: 30, HandoffBase: 100, HandoffPerWaiter: 200})
	p1 := e.Spawn("a", 0, 0, func(p *Proc) {
		l.Lock(p)
		p.Work("crit", 50)
		l.Unlock(p)
	})
	e.Run(1_000_000)
	if p1.TaggedCycles("spinlock") != 30 {
		t.Errorf("spinlock cycles = %d, want 30", p1.TaggedCycles("spinlock"))
	}
	if l.Acquires != 1 || l.Contended != 0 {
		t.Errorf("stats: %+v", l)
	}
	if l.Held() {
		t.Error("lock should be free")
	}
}

func TestSpinlockContentionSerializesAndCharges(t *testing.T) {
	e := NewEngine()
	l := NewSpinlock("l", "spinlock", LockCosts{Uncontended: 0, HandoffBase: 10, HandoffPerWaiter: 0})
	var critEnd []uint64
	worker := func(p *Proc) {
		l.Lock(p)
		p.Work("crit", 100)
		critEnd = append(critEnd, p.Now())
		l.Unlock(p)
	}
	procs := make([]*Proc, 4)
	for i := 0; i < 4; i++ {
		procs[i] = e.Spawn("w", i, 0, worker)
	}
	e.Run(1_000_000)
	// Critical sections must not overlap: ends at 100, 210, 320, 430
	// (100 crit + 10 handoff each).
	want := []uint64{100, 210, 320, 430}
	if len(critEnd) != 4 {
		t.Fatalf("critEnd = %v", critEnd)
	}
	for i, w := range want {
		if critEnd[i] != w {
			t.Errorf("critEnd[%d] = %d, want %d", i, critEnd[i], w)
		}
	}
	// Waiters spin: their wait time is busy, tagged "spinlock".
	totalSpin := uint64(0)
	for _, p := range procs {
		totalSpin += p.TaggedCycles("spinlock")
	}
	// w1 spins 110, w2 spins 220, w3 spins 330.
	if totalSpin != 660 {
		t.Errorf("total spin = %d, want 660", totalSpin)
	}
	if l.MaxWaiters != 3 {
		t.Errorf("MaxWaiters = %d, want 3", l.MaxWaiters)
	}
}

func TestSpinlockHandoffPenaltyGrowsWithWaiters(t *testing.T) {
	run := func(n int) uint64 {
		e := NewEngine()
		l := NewSpinlock("l", "spin", LockCosts{Uncontended: 0, HandoffBase: 0, HandoffPerWaiter: 100})
		var last uint64
		for i := 0; i < n; i++ {
			e.Spawn("w", i, 0, func(p *Proc) {
				l.Lock(p)
				p.Work("crit", 10)
				l.Unlock(p)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		e.Run(10_000_000)
		return last
	}
	t2, t8 := run(2), run(8)
	// With superlinear handoff the 8-core run should take much more than
	// 4x the 2-core run.
	if t8 < t2*6 {
		t.Errorf("8-core completion %d not superlinear vs 2-core %d", t8, t2)
	}
}

func TestRecursiveLockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	e := NewEngine()
	l := NewSpinlock("l", "spin", LockCosts{})
	e.Spawn("w", 0, 0, func(p *Proc) {
		l.Lock(p)
		l.Lock(p)
	})
	e.Run(1000)
}

func TestCondWaitUntil(t *testing.T) {
	e := NewEngine()
	c := NewCond("c")
	ready := false
	var sawAt uint64
	p1 := e.Spawn("waiter", 0, 0, func(p *Proc) {
		c.WaitUntil(p, func() bool { return ready })
		sawAt = p.Now()
	})
	e.Schedule(5000, func(now uint64) {
		ready = true
		c.SignalAt(now, 1)
	})
	e.Run(1_000_000)
	if sawAt != 5000 {
		t.Errorf("woke at %d, want 5000", sawAt)
	}
	if p1.Busy() != 0 {
		t.Errorf("cond wait must be idle, busy = %d", p1.Busy())
	}
}

func TestCondNoLostWakeupWhenPredAlreadyTrue(t *testing.T) {
	e := NewEngine()
	c := NewCond("c")
	ready := true // already true before the waiter ever runs
	done := false
	e.Spawn("waiter", 0, 100, func(p *Proc) {
		c.WaitUntil(p, func() bool { return ready })
		done = true
	})
	e.Run(1_000_000)
	if !done {
		t.Error("waiter stuck despite predicate true")
	}
}

func TestCondSpuriousSignalRechecksPredicate(t *testing.T) {
	e := NewEngine()
	c := NewCond("c")
	ready := false
	done := false
	e.Spawn("waiter", 0, 0, func(p *Proc) {
		c.WaitUntil(p, func() bool { return ready })
		done = true
	})
	// Spurious signal: predicate still false; waiter must go back to sleep.
	e.Schedule(100, func(now uint64) { c.SignalAt(now, 1) })
	e.Schedule(200, func(now uint64) {
		if done {
			t.Error("waiter woke on spurious signal")
		}
		ready = true
		c.SignalAt(now, -1)
	})
	e.Run(1_000_000)
	if !done {
		t.Error("waiter never completed")
	}
}

func TestSpinUntil(t *testing.T) {
	e := NewEngine()
	p1 := e.Spawn("w", 0, 0, func(p *Proc) {
		p.Work("w", 100)
		p.SpinUntil("inval", 600)
		p.SpinUntil("inval", 10) // past: no-op
	})
	e.Run(1_000_000)
	if p1.Now() != 600 {
		t.Errorf("clock = %d", p1.Now())
	}
	if p1.TaggedCycles("inval") != 500 {
		t.Errorf("inval spin = %d, want 500", p1.TaggedCycles("inval"))
	}
}

func TestStopKillsBlockedProcs(t *testing.T) {
	e := NewEngine()
	c := NewCond("never")
	e.Spawn("stuck", 0, 0, func(p *Proc) {
		c.WaitUntil(p, func() bool { return false })
	})
	e.Spawn("loop", 1, 0, func(p *Proc) {
		for {
			p.Work("w", 10)
		}
	})
	e.Run(1000)
	e.Stop() // must not deadlock
	for _, p := range e.Procs() {
		if !p.done {
			t.Errorf("proc %s not done after Stop", p.Name())
		}
	}
}

func TestBusyNeverExceedsElapsed(t *testing.T) {
	// Property: a proc's busy cycles can never exceed its elapsed virtual
	// time, whatever mix of work, sleeps, locks and cond waits it runs.
	e := NewEngine()
	l := NewSpinlock("l", "spin", LockCosts{Uncontended: 10, HandoffBase: 50, HandoffPerWaiter: 100})
	c := NewCond("c")
	var procs []*Proc
	for i := 0; i < 5; i++ {
		d := uint64(7 + i*13)
		procs = append(procs, e.Spawn("w", i, 0, func(p *Proc) {
			for j := 0; j < 50; j++ {
				p.Work("w", d)
				l.Lock(p)
				p.Work("crit", 20)
				l.Unlock(p)
				if j%10 == 3 {
					p.Sleep(500)
				}
				if j%17 == 5 {
					c.WaitUntil(p, func() bool { return true })
				}
			}
		}))
	}
	e.Run(100_000_000)
	e.Stop()
	for _, p := range procs {
		if p.Busy() > p.Now() {
			t.Errorf("%s: busy %d > elapsed %d", p.Name(), p.Busy(), p.Now())
		}
		var tagged uint64
		for _, v := range p.Tagged() {
			tagged += v
		}
		if tagged != p.Busy() {
			t.Errorf("%s: tagged sum %d != busy %d", p.Name(), tagged, p.Busy())
		}
	}
}

func TestSpawnDuringRun(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(100, func(now uint64) {
		e.Spawn("late", 0, now+50, func(p *Proc) {
			if p.Now() != 150 {
				t.Errorf("late proc started at %d, want 150", p.Now())
			}
			ran = true
		})
	})
	e.Run(1_000_000)
	e.Stop()
	if !ran {
		t.Error("late-spawned proc never ran")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		e := NewEngine()
		l := NewSpinlock("l", "spin", LockCosts{Uncontended: 5, HandoffBase: 7, HandoffPerWaiter: 11})
		var ends []uint64
		for i := 0; i < 6; i++ {
			d := uint64(10 + i*3)
			e.Spawn("w", i, 0, func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Work("w", d)
					l.Lock(p)
					p.Work("crit", 13)
					l.Unlock(p)
				}
				ends = append(ends, p.Now())
			})
		}
		e.Run(100_000_000)
		return ends
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 6 {
		t.Fatalf("lens: %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("nondeterministic: run1[%d]=%d run2[%d]=%d", i, a[i], i, b[i])
		}
	}
}

func TestCancelledTimerNeverDispatches(t *testing.T) {
	// A cancelled timer must be discarded lazily: no callback invocation,
	// no dispatch counted, and the drop visible in LazyDrops.
	e := NewEngine()
	calls := 0
	kept := e.ScheduleTimer(500, func(now uint64) { calls++ })
	dropped := e.ScheduleTimer(100, func(now uint64) { calls += 100 })
	dropped.Cancel()
	e.Run(1_000)
	if calls != 1 {
		t.Fatalf("callback calls = %d, want 1 (cancelled timer must not run)", calls)
	}
	if dropped.Fired() || !dropped.Cancelled() {
		t.Error("cancelled timer reports fired")
	}
	if !kept.Fired() {
		t.Error("live timer did not fire")
	}
	if e.Dispatches() != 1 {
		t.Errorf("dispatches = %d, want 1 (lazy drop must not count)", e.Dispatches())
	}
	if e.LazyDrops() != 1 {
		t.Errorf("lazy drops = %d, want 1", e.LazyDrops())
	}
}

func TestCancelAfterFireIsHarmless(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.ScheduleTimer(10, func(now uint64) { fired = true })
	e.Run(100)
	tm.Cancel()
	if !fired || !tm.Fired() {
		t.Error("timer should have fired before the late cancel")
	}
}

// TestFastYieldEquivalence is the determinism guard for the same-proc fast
// path: a randomized (fixed-seed) mix of work, sleeps, lock contention,
// timers and cond signals must produce bit-identical per-proc clocks, busy
// cycles and tagged totals whether the fast path is enabled (default) or
// every yield parks and is re-dispatched through Run's wake queue
// (noFastYield, the reference).
func TestFastYieldEquivalence(t *testing.T) {
	type result struct {
		clock, busy uint64
		tagged      map[string]uint64
		final       uint64
	}
	script := func(noFast bool, seed int64) []result {
		e := NewEngine()
		e.noFastYield = noFast
		rng := rand.New(rand.NewSource(seed))
		l := NewSpinlock("l", "spin", LockCosts{Uncontended: 9, HandoffBase: 31, HandoffPerWaiter: 57})
		procs := make([]*Proc, 4)
		for i := range procs {
			// Per-proc deterministic sub-seed so the script does not
			// depend on cross-proc rng interleaving.
			sub := rand.New(rand.NewSource(seed ^ int64(i*7919)))
			procs[i] = e.Spawn(fmt.Sprintf("w%d", i), i, uint64(rng.Intn(50)), func(p *Proc) {
				for j := 0; j < 300; j++ {
					switch sub.Intn(5) {
					case 0:
						p.Work("w", uint64(1+sub.Intn(40)))
					case 1:
						p.Sleep(uint64(sub.Intn(120)))
					case 2:
						l.Lock(p)
						p.Work("crit", uint64(1+sub.Intn(15)))
						l.Unlock(p)
					case 3:
						tm := e.ScheduleTimer(p.Now()+uint64(sub.Intn(200)), func(uint64) {})
						if sub.Intn(2) == 0 {
							tm.Cancel()
						}
						p.Yield()
					case 4:
						p.Charge("local", uint64(sub.Intn(25)))
					}
				}
			})
		}
		final := e.Run(10_000_000)
		e.Stop()
		out := make([]result, len(procs))
		for i, p := range procs {
			tagged := make(map[string]uint64, len(p.Tagged()))
			for k, v := range p.Tagged() {
				tagged[k] = v
			}
			out[i] = result{clock: p.Now(), busy: p.Busy(), tagged: tagged, final: final}
		}
		return out
	}
	for seed := int64(1); seed <= 3; seed++ {
		fast, slow := script(false, seed), script(true, seed)
		for i := range fast {
			if fast[i].clock != slow[i].clock || fast[i].busy != slow[i].busy {
				t.Errorf("seed %d proc %d: fast clock/busy %d/%d != slow %d/%d",
					seed, i, fast[i].clock, fast[i].busy, slow[i].clock, slow[i].busy)
			}
			if fast[i].final != slow[i].final {
				t.Errorf("seed %d: final time %d != %d", seed, fast[i].final, slow[i].final)
			}
			for k, v := range fast[i].tagged {
				if slow[i].tagged[k] != v {
					t.Errorf("seed %d proc %d tag %q: fast %d != slow %d",
						seed, i, k, v, slow[i].tagged[k])
				}
			}
			for k, v := range slow[i].tagged {
				if fast[i].tagged[k] != v {
					t.Errorf("seed %d proc %d tag %q: slow-only value %d", seed, i, k, v)
				}
			}
		}
	}
}

// TestCurrentIsTheResumedProc: Current names the proc Run is resuming,
// and is nil in callbacks and once Run returns.
func TestCurrentIsTheResumedProc(t *testing.T) {
	e := NewEngine()
	var procs [2]*Proc
	for i := range procs {
		i := i
		procs[i] = e.Spawn("w", i, 0, func(p *Proc) {
			for k := 0; k < 3; k++ {
				if e.Current() != p {
					t.Errorf("proc %d: Current = %v", i, e.Current())
				}
				p.Work("sw", uint64(10+i))
			}
		})
	}
	e.Schedule(15, func(uint64) {
		if e.Current() != nil {
			t.Errorf("callback: Current = %v, want nil", e.Current())
		}
	})
	e.Run(1 << 20)
	if e.Current() != nil {
		t.Errorf("after Run: Current = %v, want nil", e.Current())
	}
	e.Stop()
}
