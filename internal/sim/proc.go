// iter.Pull needs Go 1.23, but the module declares go 1.22:
// benchmark/go.mod pins 1.22 and builds this module through a replace
// directive, so raising the module's version breaks that build with
// "updates to go.mod needed". This constraint raises the Go version of
// this file alone, which is the version go vet checks iter.Pull against.

//go:build go1.23

package sim

import "iter"

// Proc is a simulated core thread. All methods must be called from within
// the proc's own coroutine (i.e. from the fn passed to Spawn), except the
// read-only stats accessors, which are safe once the engine is idle.
type Proc struct {
	eng  *Engine
	name string
	core int

	clock uint64 // local virtual time
	busy  uint64 // cycles spent doing work (incl. spinning)

	// Per-component busy-cycle accounting. Tags are interned into slots:
	// tagVals[tagIdx[tag]] holds the cycles for tag, and tagCache is a
	// tiny direct cache in front of the map so the hot Charge path costs
	// a short pointer-compare scan instead of a string hash. (Charge is
	// the single hottest proc-local operation; at 128 simulated cores
	// the map hashing dominated host CPU.)
	tagIdx   map[string]int
	tagNames []string
	tagVals  []uint64
	tagCache [8]tagCacheEntry
	tagHand  uint8 // round-robin victim pointer into tagCache

	// The proc's coroutine (see start): Run resumes it with next, park
	// suspends it with yield, Stop unwinds it with stop.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
	done  bool

	wakeAt     uint64 // set by the engine before resuming
	wakeBusy   bool   // whether the jump to wakeAt counts as busy
	wakeTag    string
	blockStart uint64

	// Observability (see obs.go). obs is captured from the engine at
	// Spawn; nil means every span call is a bare nil check.
	obs   SpanSink
	spans []spanFrame
}

// tagCacheEntry maps one tag string to its slot in tagVals. slot stores
// index+1 so the zero value can never alias slot 0.
type tagCacheEntry struct {
	tag  string
	slot uint32
}

// Name returns the proc's name.
func (p *Proc) Name() string { return p.name }

// Core returns the simulated core index this proc runs on.
func (p *Proc) Core() int { return p.core }

// Now returns the proc's local virtual time.
func (p *Proc) Now() uint64 { return p.clock }

// Busy returns the total busy cycles accumulated so far.
func (p *Proc) Busy() uint64 { return p.busy }

// Tagged returns a snapshot of the per-component busy-cycle accounting.
// The returned map is freshly built per call; mutating it has no effect on
// the proc.
func (p *Proc) Tagged() map[string]uint64 {
	m := make(map[string]uint64, len(p.tagNames))
	for i, n := range p.tagNames {
		m[n] = p.tagVals[i]
	}
	return m
}

// TaggedCycles returns busy cycles attributed to one component tag.
func (p *Proc) TaggedCycles(tag string) uint64 {
	if i, ok := p.tagIdx[tag]; ok {
		return p.tagVals[i]
	}
	return 0
}

// tagSlot resolves tag to its slot index in tagVals, interning it on first
// use. The cache scan hits on pointer equality for the constant tag
// strings used by all hot paths, avoiding the map's string hash.
func (p *Proc) tagSlot(tag string) int {
	for i := range p.tagCache {
		e := &p.tagCache[i]
		if e.slot != 0 && e.tag == tag {
			return int(e.slot - 1)
		}
	}
	return p.tagSlotSlow(tag)
}

func (p *Proc) tagSlotSlow(tag string) int {
	idx, ok := p.tagIdx[tag]
	if !ok {
		idx = len(p.tagVals)
		p.tagIdx[tag] = idx
		p.tagVals = append(p.tagVals, 0)
		p.tagNames = append(p.tagNames, tag)
	}
	e := &p.tagCache[p.tagHand]
	p.tagHand = (p.tagHand + 1) & 7
	e.tag, e.slot = tag, uint32(idx+1)
	return idx
}

// start makes fn the body of p's coroutine. iter.Pull gives the
// coroutine its own stack, but control passes only by direct switches: Run
// resumes the proc through next and park suspends it through yield. A
// panic in fn reaches the caller of next or stop (Run's or Stop's caller)
// with its original value; the errStopped unwinding that Stop starts ends
// the coroutine quietly.
func (p *Proc) start(fn func(p *Proc)) {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.done = true
			if r := recover(); r != nil && r != errStopped {
				panic(r)
			}
		}()
		fn(p)
	})
}

// park suspends the proc, handing control back to Run, until Run resumes
// it. On resume the proc's clock jumps to the wake time; the jump is
// counted busy (with wakeTag) if wakeBusy is set (spinlock handoffs), idle
// otherwise. If Stop resumes it instead, yield reports false and the proc
// unwinds with errStopped.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(errStopped)
	}
	if p.wakeAt > p.clock {
		if p.wakeBusy {
			p.account(p.wakeTag, p.wakeAt-p.clock)
		}
		p.clock = p.wakeAt
	}
	p.wakeBusy = false
	p.wakeTag = ""
}

// fence re-synchronizes the proc with global virtual time: it parks and is
// re-dispatched once every other pending item at an earlier timestamp has
// run. Shared-resource operations (locks, conditions) fence first so that
// locally accumulated Charge costs cannot reorder cross-core interactions.
//
// Fast path: when every other pending item is strictly later than this
// proc's clock, the engine would dispatch the proc straight back, so the
// heap round-trip is skipped entirely and the proc keeps running.
func (p *Proc) fence() {
	if p.eng.tryFastYield(p.clock) {
		return
	}
	p.eng.push(wakeItem{at: p.clock, p: p})
	p.park()
}

// block parks without a scheduled wake; some other party must Wake the proc.
func (p *Proc) block() {
	p.blockStart = p.clock
	p.park()
}

// wake schedules a blocked proc to resume at time at. If busy is true the
// waiting interval counts as busy time under tag (spin-waiting).
func (p *Proc) wake(at uint64, busy bool, tag string) {
	if at < p.clock {
		at = p.clock
	}
	p.wakeBusy = busy
	p.wakeTag = tag
	p.eng.push(wakeItem{at: at, p: p})
}

// account adds c busy cycles under tag: to the proc's busy total, to the
// tag's slot and, on an observed proc with an open span, to the innermost
// span's self. Every busy cycle goes through it: Charge, SpinUntil and a
// spinlock handoff's busy wake in park.
func (p *Proc) account(tag string, c uint64) {
	p.busy += c
	i := p.tagSlot(tag)
	p.tagVals[i] += c
	if n := len(p.spans); n > 0 {
		f := &p.spans[n-1]
		for len(f.self) <= i {
			f.self = append(f.self, 0)
		}
		f.self[i] += c
	}
}

// Charge accounts c busy cycles under tag and advances the local clock
// WITHOUT yielding to the engine. Use for sequences of purely core-local
// work; any shared-resource operation re-synchronizes via fence.
func (p *Proc) Charge(tag string, c uint64) {
	p.account(tag, c)
	p.clock += c
}

// Work is Charge followed by a yield, making the elapsed work visible to
// the rest of the simulation.
func (p *Proc) Work(tag string, c uint64) {
	p.Charge(tag, c)
	p.fence()
}

// Sleep advances the local clock by c cycles of idle (non-busy) time.
func (p *Proc) Sleep(c uint64) {
	at := p.clock + c
	if p.eng.tryFastYield(at) {
		p.clock = at // idle jump: busy is untouched
		return
	}
	p.eng.push(wakeItem{at: at, p: p})
	p.park()
}

// SpinUntil busy-waits until absolute virtual time t, accounting the wait
// under tag. If t is in the past it is a no-op.
func (p *Proc) SpinUntil(tag string, t uint64) {
	if t <= p.clock {
		return
	}
	p.account(tag, t-p.clock)
	p.clock = t
	p.fence()
}

// Yield gives other procs at the same or earlier virtual time a chance to
// run without advancing the clock.
func (p *Proc) Yield() { p.fence() }
