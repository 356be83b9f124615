package sim

// LockCosts parameterizes the spinlock contention model.
type LockCosts struct {
	// Uncontended is the cost of an uncontended acquire+release pair.
	Uncontended uint64
	// HandoffBase is the fixed cost of transferring a contended lock's
	// cache line to the next owner.
	HandoffBase uint64
	// HandoffPerWaiter is the additional coherence-traffic cost per
	// core still spinning on the lock at handoff time. This superlinear
	// term reproduces the collapse of strict (identity+) protection at
	// 16 cores (paper Figs 6 and 8a: ~69us of spinlock time per packet).
	HandoffPerWaiter uint64
}

// Spinlock models a kernel spinlock: waiters burn CPU while spinning, and
// contended handoffs pay coherence-traffic costs that grow with the number
// of spinners. Acquisition order is FIFO (ticket-lock behaviour).
type Spinlock struct {
	name     string
	spanName string // "spin:"+name, built on the first observed Lock
	costs    LockCosts
	tag      string

	owner   *Proc
	waiters waitQueue

	// Stats
	Acquires   uint64
	Contended  uint64
	MaxWaiters int
}

// NewSpinlock creates a spinlock. Spin-wait time is accounted under tag
// (normally cycles.TagSpinlock).
func NewSpinlock(name, tag string, costs LockCosts) *Spinlock {
	return &Spinlock{name: name, costs: costs, tag: tag}
}

// Held reports whether the lock is currently owned (for tests/invariants).
func (l *Spinlock) Held() bool { return l.owner != nil }

// Lock acquires the spinlock, spinning (busy) if it is contended. When a
// span sink is attached the acquisition — uncontended charge or contended
// spin, including the handoff penalty accrued on wake — is reported as a
// "spin:<name>" span.
func (l *Spinlock) Lock(p *Proc) {
	if p.obs != nil {
		if l.spanName == "" {
			l.spanName = "spin:" + l.name
		}
		p.SpanEnter(l.spanName)
		defer p.SpanExit()
	}
	p.fence()
	l.Acquires++
	if l.owner == nil {
		l.owner = p
		p.Charge(l.tag, l.costs.Uncontended)
		return
	}
	if l.owner == p {
		panic("sim: recursive Lock on " + l.name + " by " + p.name)
	}
	l.Contended++
	l.waiters.push(p)
	l.MaxWaiters = max(l.MaxWaiters, l.waiters.len())
	p.block() // woken by Unlock with ownership already transferred
}

// Unlock releases the spinlock and hands it to the oldest waiter, if any,
// charging the contended-handoff penalty to the new owner's spin time.
func (l *Spinlock) Unlock(p *Proc) {
	if l.owner != p {
		panic("sim: Unlock of " + l.name + " by non-owner " + p.name)
	}
	if l.waiters.len() == 0 {
		l.owner = nil
		return
	}
	next := l.waiters.pop()
	penalty := l.costs.HandoffBase + l.costs.HandoffPerWaiter*uint64(l.waiters.len()+1)
	l.owner = next
	at := p.clock
	if next.clock > at {
		at = next.clock
	}
	next.wake(at+penalty, true, l.tag)
}
