package sim

import "testing"

// TestWaitQueueFIFOAcrossWrap pushes and pops through several ring
// growths and wraps, checking procs leave in the order they came.
func TestWaitQueueFIFOAcrossWrap(t *testing.T) {
	procs := make([]*Proc, 40)
	for i := range procs {
		procs[i] = &Proc{}
	}
	var q waitQueue
	in, out := 0, 0
	for round := 0; round < 30; round++ {
		for k := 0; k < round%7+1 && in < len(procs); k++ {
			q.push(procs[in])
			in++
		}
		for k := 0; k < round%5 && q.len() > 0; k++ {
			if got := q.pop(); got != procs[out] {
				t.Fatalf("round %d: popped proc %p, want proc %d", round, got, out)
			}
			out++
		}
		if q.len() != in-out {
			t.Fatalf("round %d: len %d, want %d", round, q.len(), in-out)
		}
	}
	for q.len() > 0 {
		if got := q.pop(); got != procs[out] {
			t.Fatalf("drain: popped proc %p, want proc %d", got, out)
		}
		out++
	}
	if out != in {
		t.Fatalf("popped %d of %d pushed procs", out, in)
	}
}

// TestWaitQueuesDoNotAllocate: once warm, a steady Cond wait/signal cycle
// and a contended Spinlock handoff between two procs allocate nothing.
func TestWaitQueuesDoNotAllocate(t *testing.T) {
	t.Run("cond", func(t *testing.T) {
		e := NewEngine()
		c := NewCond("c")
		ready := false
		pred := func() bool { return ready }
		waits := 0
		e.Spawn("waiter", 0, 0, func(p *Proc) {
			for {
				c.WaitUntil(p, pred)
				ready = false
				waits++
			}
		})
		e.Spawn("signaler", 1, 0, func(p *Proc) {
			for {
				p.Work("w", 100)
				ready = true
				c.Signal(p)
			}
		})
		defer e.Stop()
		if n := testing.AllocsPerRun(50, func() { e.Run(e.Now() + 1000) }); n != 0 {
			t.Errorf("a wait/signal cycle allocates: %v allocs per 10 cycles", n)
		}
		if waits < 500 || c.Waits < 500 {
			t.Fatalf("only %d waits (%d blocked) ran", waits, c.Waits)
		}
	})
	t.Run("spinlock", func(t *testing.T) {
		e := NewEngine()
		l := NewSpinlock("l", "spin", LockCosts{Uncontended: 10, HandoffBase: 20, HandoffPerWaiter: 5})
		for core := 0; core < 2; core++ {
			e.Spawn("locker", core, 0, func(p *Proc) {
				for {
					l.Lock(p)
					p.Work("w", 50)
					l.Unlock(p)
					p.Work("w", 10)
				}
			})
		}
		defer e.Stop()
		if n := testing.AllocsPerRun(50, func() { e.Run(e.Now() + 1000) }); n != 0 {
			t.Errorf("a contended handoff allocates: %v allocs per run", n)
		}
		if l.Contended < 500 {
			t.Fatalf("only %d contended acquires ran", l.Contended)
		}
	})
}
