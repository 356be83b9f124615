// Package sim implements a conservative discrete-event simulator with
// coroutine-style simulated cores (Procs), virtual cycle clocks, contended
// spinlock modeling and condition variables.
//
// Exactly one Proc (or engine callback) executes at a time; the engine
// always dispatches the pending item with the smallest virtual timestamp, so
// cross-core interactions (lock handoffs, ring notifications, hardware
// completions) are globally ordered and deterministic.
package sim

import (
	"fmt"
)

// Engine is the simulation scheduler. Create one with NewEngine, add Procs
// with Spawn and hardware callbacks with Schedule, then call Run.
//
// Run is the only scheduler loop, and every proc is an iter.Pull
// coroutine. Run pops the earliest wake item, runs a callback itself or
// resumes the target proc through its next function; the proc runs until
// it parks, which yields straight back to Run. A switch between procs is
// therefore two direct coroutine switches (proc to Run, Run to proc), with
// no channel operation and no trip through the Go scheduler. A proc that
// yields while every other pending item is later does not switch at all
// (tryFastYield).
type Engine struct {
	now      uint64
	seq      uint64
	pq       []wakeItem // 4-ary min-heap ordered by (at, seq)
	far      []wakeItem // items beyond the current window's horizon
	limit    uint64     // current Run's `until` (valid while running)
	procs    []*Proc
	stopping bool
	running  bool

	// noFastYield disables tryFastYield, so every fence and sleep parks
	// and is re-dispatched through the wake queue. Tests use it as the
	// reference that proves the fast path cannot reorder the simulation.
	noFastYield bool

	// obs, when set via SetObserver before Spawn, is handed to every
	// spawned proc as its span sink (see obs.go).
	obs SpanSink

	// Scheduler statistics (informational; virtual-time results never
	// depend on them).
	dispatches uint64
	fastYields uint64
	lazyDrops  uint64
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the engine's current virtual time in cycles.
func (e *Engine) Now() uint64 { return e.now }

// Procs returns a snapshot of all spawned procs (for stats collection).
// The slice is a copy; mutating it cannot alias engine state.
func (e *Engine) Procs() []*Proc {
	out := make([]*Proc, len(e.procs))
	copy(out, e.procs)
	return out
}

// Dispatches returns how many queue items the engine dispatched (proc
// resumes and callback invocations; lazily dropped cancelled timers and
// fast-path yields are not dispatches).
func (e *Engine) Dispatches() uint64 { return e.dispatches }

// FastYields returns how many fence/sleep operations took the same-proc
// fast path, continuing without a switch to Run.
func (e *Engine) FastYields() uint64 { return e.fastYields }

// LazyDrops returns how many cancelled timers were discarded from the wake
// queue without being dispatched.
func (e *Engine) LazyDrops() uint64 { return e.lazyDrops }

type wakeItem struct {
	at  uint64
	seq uint64
	p   *Proc            // either p
	fn  func(now uint64) // or fn is set
	t   *Timer           // set for cancellable timers (lazy deletion)
}

// The wake queue is a hand-inlined 4-ary min-heap over []wakeItem keyed by
// (at, seq). Compared to container/heap this avoids the interface{} boxing
// allocation on every push/pop and the indirect Less/Swap calls; the wider
// fanout halves the tree depth, which matters because the queue is touched
// on every fence of every proc. Items that cannot fire inside the current
// Run window (at > limit) are parked in the flat `far` list instead, so
// long-TTL timers never dilute the hot heap; mergeFar moves them back when
// a later window can reach them.

func wakeLess(a, b *wakeItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// pushRaw inserts an item that already carries its seq (heap re-insertion).
func (e *Engine) pushRaw(it wakeItem) {
	pq := append(e.pq, it)
	i := len(pq) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !wakeLess(&pq[i], &pq[parent]) {
			break
		}
		pq[i], pq[parent] = pq[parent], pq[i]
		i = parent
	}
	e.pq = pq
}

func (e *Engine) push(it wakeItem) {
	it.seq = e.seq
	e.seq++
	e.place(it)
}

// place queues an item that already carries its seq: in the far list if
// the current Run window cannot reach it, in the wake heap otherwise.
func (e *Engine) place(it wakeItem) {
	if e.running && it.at > e.limit {
		e.far = append(e.far, it)
		return
	}
	e.pushRaw(it)
}

// mergeFar moves far-horizon items the new window can reach back into the
// wake heap, discarding timers cancelled while parked there. Heap order is
// restored exactly because items keep their original seq.
func (e *Engine) mergeFar() {
	if len(e.far) == 0 {
		return
	}
	old := e.far
	kept := old[:0]
	for i := range old {
		it := old[i]
		if it.t != nil && it.t.cancelled {
			e.lazyDrops++
			continue
		}
		if it.at <= e.limit {
			e.pushRaw(it)
			continue
		}
		kept = append(kept, it)
	}
	for i := len(kept); i < len(old); i++ {
		old[i] = wakeItem{} // release *Proc / fn references
	}
	e.far = kept
}

// popMin removes and returns the earliest item. The queue must be non-empty.
func (e *Engine) popMin() wakeItem {
	pq := e.pq
	min := pq[0]
	n := len(pq) - 1
	pq[0] = pq[n]
	pq[n] = wakeItem{} // release *Proc / fn references
	pq = pq[:n]
	e.pq = pq
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if wakeLess(&pq[c], &pq[best]) {
				best = c
			}
		}
		if !wakeLess(&pq[best], &pq[i]) {
			break
		}
		pq[i], pq[best] = pq[best], pq[i]
		i = best
	}
	return min
}

// pruneTop discards cancelled timers sitting at the head of the queue so
// they never influence dispatch decisions (lazy deletion).
func (e *Engine) pruneTop() {
	for len(e.pq) > 0 && e.pq[0].t != nil && e.pq[0].t.cancelled {
		e.popMin()
		e.lazyDrops++
	}
}

// tryFastYield reports whether a proc yielding until virtual time at may
// simply continue running: the engine is mid-Run, at is within the run
// limit, and every other pending item is strictly later — so the slow path
// would pop the proc's own item right back. Same-timestamp items keep FIFO
// priority (they hold smaller seqs), hence the strict comparison.
func (e *Engine) tryFastYield(at uint64) bool {
	if !e.running || e.stopping || e.noFastYield || at > e.limit {
		return false
	}
	e.pruneTop()
	if len(e.pq) > 0 && e.pq[0].at <= at {
		return false
	}
	if at > e.now {
		e.now = at
	}
	e.fastYields++
	return true
}

// Schedule registers a callback to run at virtual time at. Callbacks run in
// engine context, which is Run's own loop between proc steps: they may
// signal conditions, schedule further callbacks and wake procs, but must
// not block.
func (e *Engine) Schedule(at uint64, fn func(now uint64)) {
	if fn == nil {
		panic("sim: Schedule with nil fn")
	}
	if at < e.now {
		at = e.now
	}
	e.push(wakeItem{at: at, fn: fn})
}

// Timer is a cancellable scheduled callback.
type Timer struct {
	cancelled bool
	fired     bool
}

// Cancelled reports whether Cancel was called before the timer fired.
func (t *Timer) Cancelled() bool { return t.cancelled }

// Fired reports whether the callback ran.
func (t *Timer) Fired() bool { return t.fired }

// Cancel prevents the callback from running if it has not fired yet. The
// queue entry is deleted lazily: a cancelled timer is discarded when it
// reaches the head of the wake queue (or when the far list is merged),
// without dispatching or advancing any engine bookkeeping.
func (t *Timer) Cancel() { t.cancelled = true }

// ScheduleTimer is Schedule with cancellation support.
func (e *Engine) ScheduleTimer(at uint64, fn func(now uint64)) *Timer {
	if fn == nil {
		panic("sim: ScheduleTimer with nil fn")
	}
	t := &Timer{}
	if at < e.now {
		at = e.now
	}
	e.push(wakeItem{at: at, fn: fn, t: t})
	return t
}

// Spawn creates a simulated core thread. fn runs as a coroutine under
// strict engine scheduling: it must interact with virtual time only
// through the Proc's methods. The proc starts at virtual time start.
func (e *Engine) Spawn(name string, core int, start uint64, fn func(p *Proc)) *Proc {
	if start < e.now {
		start = e.now
	}
	p := &Proc{
		eng:    e,
		name:   name,
		core:   core,
		clock:  start,
		tagIdx: make(map[string]int),
		obs:    e.obs,
	}
	p.start(fn)
	e.procs = append(e.procs, p)
	e.push(wakeItem{at: start, p: p})
	return p
}

// Run executes the simulation until virtual time `until` or until there is
// no pending work. It returns the final virtual time. A panic in a proc or
// a callback propagates out of Run with its original value.
func (e *Engine) Run(until uint64) uint64 {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
	e.limit = until
	defer func() { e.running = false }()
	e.mergeFar()
	for {
		e.pruneTop()
		if len(e.pq) == 0 {
			break
		}
		if e.pq[0].at > until {
			e.now = until
			return e.now
		}
		it := e.popMin()
		if it.at > e.now {
			e.now = it.at
		}
		if it.fn != nil {
			e.dispatches++
			if it.t != nil {
				it.t.fired = true
			}
			it.fn(e.now)
			continue
		}
		p := it.p
		if p.done {
			continue
		}
		e.dispatches++
		p.wakeAt = it.at
		p.next()
	}
	if e.now < until {
		e.now = until
	}
	return e.now
}

// Stop unwinds every live proc in spawn order: the proc's pending yield
// reports false, so it panics with errStopped, which its coroutine
// absorbs. A proc that never started is discarded without running. A
// panic raised while a proc unwinds (by one of its deferred calls)
// propagates out of Stop once the remaining procs are stopped too. After
// Stop the engine must not be reused.
func (e *Engine) Stop() {
	e.stopping = true
	e.stopFrom(0)
}

// stopFrom stops procs[i:]. The deferred recursion keeps stopping the
// rest when one proc's unwinding panics.
func (e *Engine) stopFrom(i int) {
	if i == len(e.procs) {
		return
	}
	defer e.stopFrom(i + 1)
	p := e.procs[i]
	p.done = true
	p.stop()
}

var errStopped = fmt.Errorf("sim: engine stopped")
