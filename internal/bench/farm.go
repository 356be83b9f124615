package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Farm is a work-stealing worker pool for sweep points. Every evaluation
// sweep in this repo — (message size x strategy x core count x seed) grids,
// chaos variant triples, multi-seed fuzzing — is embarrassingly parallel:
// each point is an independent discrete-event simulation on its own
// engine, bit-deterministic in isolation. The Farm fans those points
// across host cores and lets the caller reassemble results in canonical
// point order, so artifacts stay byte-identical regardless of worker
// count or completion order.
//
// Scheduling model: Map distributes point i to worker deque i mod W.
// Workers pop their own deque LIFO and, when empty, steal the oldest task
// from another worker's deque (FIFO), so a straggler point never idles
// the rest of the pool. The submitting goroutine blocks until its whole
// group completes; results land in caller-owned slices indexed by point,
// which is what makes the merge deterministic.
//
// A Farm value is a cheap handle onto a shared worker pool. WithContext
// derives a handle whose Map calls are cancellable: once the context is
// done, that handle's queued-but-unstarted points complete immediately
// with ctx.Err() instead of running, while points from other handles on
// the same pool are untouched. This is how the daemon runs many client
// requests over one pool and cancels exactly one of them. A derived
// handle also counts its own points, so one request's stats never
// include another's.
//
// Contract: task functions must be leaves — they must not call Map on the
// same Farm (sweep coordinators run on ordinary goroutines; only leaf
// simulations run as tasks). A nil *Farm is valid and runs every Map
// serially in submission order with identical semantics, which is the
// degenerate -parallel case and what unit tests use for byte-for-byte
// reference runs.
type Farm struct {
	p   *pool
	ctx context.Context // nil means never cancelled
	// own counts the points of a handle from WithContext; it is nil on
	// the handle NewFarm returns, which reports the pool's totals.
	own *pointCounts
}

// pointCounts are the per-point counters Stats reports.
type pointCounts struct {
	submitted, executed, stolen, panics, canceled atomic.Uint64
}

// pool holds the shared worker state behind one or more Farm handles.
type pool struct {
	workers int

	mu      sync.Mutex
	cond    *sync.Cond
	deques  [][]*task
	pending int
	hwm     int
	closed  bool
	wg      sync.WaitGroup

	started  time.Time
	all      pointCounts // every handle's points
	inflight atomic.Int64
	busyNs   []atomic.Int64
}

// task is one queued point: fn computes it, grp collects completion, idx
// is the canonical point index within the group, home the deque it was
// dealt to (an executor with a different id counts as a steal).
type task struct {
	fn   func(i int) error
	grp  *group
	idx  int
	home int
}

// group tracks one Map call's outstanding points. ctx, when non-nil,
// cancels the group's not-yet-started points. counts are the counters
// its points count in: the pool's, then the submitting handle's own.
type group struct {
	n      int
	done   int
	errs   []error
	fin    chan struct{}
	ctx    context.Context
	counts []*pointCounts
}

// NewFarm starts a pool of `parallel` workers (<=0 means GOMAXPROCS).
// Close it when the sweep is finished; an unclosed farm only costs idle
// goroutines.
func NewFarm(parallel int) *Farm {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	p := &pool{
		workers: parallel,
		deques:  make([][]*task, parallel),
		busyNs:  make([]atomic.Int64, parallel),
		started: time.Now(),
	}
	p.cond = sync.NewCond(&p.mu)
	for w := 0; w < parallel; w++ {
		p.wg.Add(1)
		go p.worker(w)
	}
	return &Farm{p: p}
}

// WithContext returns a handle on the same pool whose Map calls stop
// scheduling new points once ctx is done: every queued point of such a
// Map completes with ctx.Err() without running (points already executing
// finish — simulations are not interruptible mid-point). The handle
// counts its own points (see Stats). Valid on a nil farm, where it
// returns a serial handle with the same cancellation semantics.
func (f *Farm) WithContext(ctx context.Context) *Farm {
	if f == nil {
		return &Farm{ctx: ctx}
	}
	return &Farm{p: f.p, ctx: ctx, own: new(pointCounts)}
}

// Workers returns the pool size (0 for a nil/serial farm).
func (f *Farm) Workers() int {
	if f == nil || f.p == nil {
		return 0
	}
	return f.p.workers
}

// Map runs fn(0..n-1) across the pool and blocks until every point has
// finished. Errors (including recovered panics) are aggregated with
// errors.Join in point order; points after a failing one still run, so a
// partially-failed sweep keeps every completed result. A nil or serial
// farm runs the points in order on the calling goroutine with the same
// semantics. When the handle carries a done context, unstarted points
// report ctx.Err() instead of running.
func (f *Farm) Map(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	var ctx context.Context
	if f != nil {
		ctx = f.ctx
	}
	if f == nil || f.p == nil {
		return mapSerial(ctx, n, fn)
	}
	p := f.p
	grp := &group{n: n, errs: make([]error, n), fin: make(chan struct{}), ctx: ctx,
		counts: []*pointCounts{&p.all}}
	if f.own != nil {
		grp.counts = append(grp.counts, f.own)
	}
	for _, c := range grp.counts {
		c.submitted.Add(uint64(n))
	}
	p.mu.Lock()
	if p.closed {
		// Late submission after Close: degrade to serial rather than
		// deadlock on workers that already exited.
		p.mu.Unlock()
		return mapSerial(ctx, n, fn)
	}
	for i := 0; i < n; i++ {
		home := i % p.workers
		p.deques[home] = append(p.deques[home], &task{fn: fn, grp: grp, idx: i, home: home})
	}
	p.pending += n
	if p.pending > p.hwm {
		p.hwm = p.pending
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	<-grp.fin
	return errors.Join(grp.errs...)
}

// canceled is the error of a point this handle's Map never started,
// which only a done context causes.
func (f *Farm) canceled() error {
	if f.ctx != nil && f.ctx.Err() != nil {
		return f.ctx.Err()
	}
	return errors.New("farm: point never ran")
}

// mapSerial is the nil/serial/late-submission path: points run in order
// on the calling goroutine, honouring ctx between points.
func mapSerial(ctx context.Context, n int, fn func(i int) error) error {
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		if ctx != nil && ctx.Err() != nil {
			errs[i] = ctx.Err()
			continue
		}
		errs[i] = runPoint(fn, i)
	}
	return errors.Join(errs...)
}

// panicError marks an error that was recovered from a panicking point.
type panicError struct{ msg string }

func (e *panicError) Error() string { return e.msg }

// IsPanic reports whether err (or any error it joins/wraps) was recovered
// from a panicking sweep point. The daemon's retry policy treats these as
// transient: the point is deterministic but the panic may have been
// injected, so one bounded re-run is worthwhile before giving up.
func IsPanic(err error) bool {
	var pe *panicError
	return errors.As(err, &pe)
}

// runPoint executes one point, converting a panic into an error so a bad
// point reports instead of killing the whole sweep.
func runPoint(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{msg: fmt.Sprintf("farm: point %d panicked: %v\n%s", i, r, debug.Stack())}
		}
	}()
	return fn(i)
}

// worker is one pool goroutine: drain own deque LIFO, steal FIFO, sleep.
func (p *pool) worker(w int) {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		t := p.takeLocked(w)
		for t == nil && !p.closed {
			p.cond.Wait()
			t = p.takeLocked(w)
		}
		if t == nil { // closed and drained
			p.mu.Unlock()
			return
		}
		p.pending--
		p.mu.Unlock()

		if t.grp.ctx != nil && t.grp.ctx.Err() != nil {
			// The group's request was cancelled: complete the point with
			// the context error without burning a simulation on it.
			for _, c := range t.grp.counts {
				c.canceled.Add(1)
			}
			p.finish(t, t.grp.ctx.Err())
			continue
		}
		if t.home != w {
			for _, c := range t.grp.counts {
				c.stolen.Add(1)
			}
		}
		p.inflight.Add(1)
		start := time.Now()
		err := runPoint(t.fn, t.idx)
		p.busyNs[w].Add(int64(time.Since(start)))
		p.inflight.Add(-1)
		p.finish(t, err)
	}
}

// finish records a completed point and releases its group when it was the
// last one.
func (p *pool) finish(t *task, err error) {
	panicked := err != nil && IsPanic(err)
	for _, c := range t.grp.counts {
		c.executed.Add(1)
		if panicked {
			c.panics.Add(1)
		}
	}
	p.mu.Lock()
	t.grp.errs[t.idx] = err
	t.grp.done++
	if t.grp.done == t.grp.n {
		close(t.grp.fin)
	}
	p.mu.Unlock()
}

// takeLocked pops a task: back of the worker's own deque first (LIFO —
// cache-warm freshest work), then the front of the next non-empty deque
// (FIFO — steal the oldest, least-contended task). Caller holds p.mu.
func (p *pool) takeLocked(w int) *task {
	if d := p.deques[w]; len(d) > 0 {
		t := d[len(d)-1]
		p.deques[w] = d[:len(d)-1]
		return t
	}
	for off := 1; off < p.workers; off++ {
		v := (w + off) % p.workers
		if d := p.deques[v]; len(d) > 0 {
			t := d[0]
			p.deques[v] = d[1:]
			return t
		}
	}
	return nil
}

// Close stops the workers after the queues drain. Map must not be in
// flight; late Map calls fall back to serial execution.
func (f *Farm) Close() {
	if f == nil || f.p == nil {
		return
	}
	p := f.p
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// QueueDepth returns the number of queued-but-unstarted points right now.
// Live (not post-hoc): the daemon's admission control reads it to decide
// whether to shed load before another Map piles onto the pool.
func (f *Farm) QueueDepth() int {
	if f == nil || f.p == nil {
		return 0
	}
	f.p.mu.Lock()
	defer f.p.mu.Unlock()
	return f.p.pending
}

// InFlight returns the number of points executing at this instant.
func (f *Farm) InFlight() int {
	if f == nil || f.p == nil {
		return 0
	}
	return int(f.p.inflight.Load())
}

// Stats snapshots the scheduler metrics (see doc/FARM.md). Host-time
// based, so informational only — never part of a gated artifact. The
// point counters (submitted, executed, steals, panics, canceled) are
// this handle's own on a handle from WithContext and the pool's totals
// otherwise; workers, the queue and utilization are always pool-wide.
func (f *Farm) Stats() obs.FarmStats {
	if f == nil || f.p == nil {
		return obs.FarmStats{}
	}
	p := f.p
	c := &p.all
	if f.own != nil {
		c = f.own
	}
	p.mu.Lock()
	hwm := p.hwm
	pending := p.pending
	p.mu.Unlock()
	s := obs.FarmStats{
		Workers:    p.workers,
		Submitted:  c.submitted.Load(),
		Executed:   c.executed.Load(),
		Steals:     c.stolen.Load(),
		Panics:     c.panics.Load(),
		Canceled:   c.canceled.Load(),
		QueueHWM:   hwm,
		QueueDepth: pending,
		InFlight:   int(p.inflight.Load()),
	}
	wall := time.Since(p.started)
	if wall > 0 {
		for w := 0; w < p.workers; w++ {
			s.UtilPct = append(s.UtilPct,
				100*float64(p.busyNs[w].Load())/float64(wall))
		}
	}
	return s
}

// Publish pushes the farm.* metrics into an obs registry.
func (f *Farm) Publish(r *obs.Registry) { obs.PublishFarm(r, f.Stats()) }

// PointSeed derives the seed for point index i of a sweep seeded with
// base. It is a splitmix64 step over (base, i), so every point gets an
// independent, well-mixed stream without any shared rand.Rand — the seed
// depends only on (base, i), never on scheduling or completion order.
func PointSeed(base int64, i int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
