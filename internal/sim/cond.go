package sim

// Cond is a condition variable for simulated procs. Because the engine runs
// one proc at a time there are no data races, but virtual-time lost-wakeup
// hazards remain; WaitUntil re-checks its predicate after every wake (and
// after the initial fence), which makes the standard predicate-loop pattern
// safe.
type Cond struct {
	name    string
	waiters waitQueue

	// Stats
	Waits   uint64
	Signals uint64
}

// NewCond creates a condition variable.
func NewCond(name string) *Cond { return &Cond{name: name} }

// WaitUntil blocks p (idle, not busy) until pred() is true. pred is
// evaluated with the proc synchronized to global virtual time.
func (c *Cond) WaitUntil(p *Proc, pred func() bool) {
	p.fence()
	for !pred() {
		c.Waits++
		c.waiters.push(p)
		p.block()
	}
}

// SignalAt wakes up to n waiters at virtual time at (idle wake: the time a
// waiter spent blocked does not count as busy). Use n < 0 for broadcast.
func (c *Cond) SignalAt(at uint64, n int) {
	c.Signals++
	for c.waiters.len() > 0 && n != 0 {
		c.waiters.pop().wake(at, false, "")
		n--
	}
}

// Signal wakes one waiter at proc p's current time (for proc-to-proc
// notification).
func (c *Cond) Signal(p *Proc) { c.SignalAt(p.Now(), 1) }

// Broadcast wakes all waiters at proc p's current time.
func (c *Cond) Broadcast(p *Proc) { c.SignalAt(p.Now(), -1) }
