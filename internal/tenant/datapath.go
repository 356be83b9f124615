package tenant

import (
	"fmt"

	"repro/internal/sim"
)

// dpJob is one received-frame completion handed from the device to a
// datapath proc: the owning tenant, the consumed zero-copy descriptor
// (unprotected/capability) or shadow slot (shadow-copy), and the frame
// length landed by the DMA.
type dpJob struct {
	t    *Tenant
	d    AppDesc
	slot int
	n    int
}

// dpQueue is one trusted datapath core's completion queue. The device
// (engine context) pushes; the proc pops in poll order. Tenants hash
// onto queues by ID, so one tenant's completions stay ordered.
type dpQueue struct {
	proc *sim.Proc
	cond *sim.Cond
	ring []dpJob // FIFO; len is zero or a power of two
	head int
	n    int
}

// push appends j at the tail, doubling the ring when it is full.
func (q *dpQueue) push(j dpJob) {
	if q.n == len(q.ring) {
		ring := make([]dpJob, max(2*len(q.ring), 16))
		for i := 0; i < q.n; i++ {
			ring[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
		}
		q.ring, q.head = ring, 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = j
	q.n++
}

// pop removes and returns the oldest job. The queue must not be empty.
func (q *dpQueue) pop() dpJob {
	j := q.ring[q.head]
	q.ring[q.head] = dpJob{}
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return j
}

func (m *Machine) spawnDatapath() {
	for i := 0; i < m.cfg.DatapathCores; i++ {
		q := &dpQueue{cond: sim.NewCond(fmt.Sprintf("tenant.dp%d", i))}
		m.procs = append(m.procs, q)
	}
	for i, q := range m.procs {
		q := q
		ready := func() bool { return q.n > 0 }
		q.proc = m.Eng.Spawn(fmt.Sprintf("tenant-dp%d", i), i, 0, func(p *sim.Proc) {
			for {
				q.cond.WaitUntil(p, ready)
				m.scheme.complete(m, q, q.pop())
			}
		})
	}
}

// completion carries one job to its datapath queue at its scheduled
// time. Its times add a per-scheme, IOTLB-dependent latency to the
// arrival time, so they do not rise monotonically and cannot share a
// sim.Stream; instead each carrier is an engine event of its own,
// recycled through the machine's spare list, with fire made once.
type completion struct {
	m    *Machine
	q    *dpQueue
	j    dpJob
	fire func(now uint64)
}

// deliver pushes the job and wakes the queue's proc (engine context),
// handing the carrier back first.
func (c *completion) deliver(when uint64) {
	q, j := c.q, c.j
	c.q, c.j = nil, dpJob{}
	c.m.spare = append(c.m.spare, c)
	q.push(j)
	q.cond.SignalAt(when, 1)
}

// enqueue hands a completion to the owning tenant's datapath queue at
// virtual time `at` (DMA + validation latency after frame arrival).
func (m *Machine) enqueue(t *Tenant, j dpJob, at uint64) {
	var c *completion
	if n := len(m.spare); n > 0 {
		c = m.spare[n-1]
		m.spare = m.spare[:n-1]
	} else {
		c = &completion{m: m}
		c.fire = c.deliver
	}
	c.q, c.j = m.procs[t.ID%len(m.procs)], j
	m.Eng.Schedule(at, c.fire)
}

// startIngress runs the shared 40 Gb/s wire at line rate: frames arrive
// back-to-back, round-robin across benign tenants, with the hostile
// tenant (when mounted) taking every 4th frame — an elephant flow that
// keeps attack descriptors executing and, post-quarantine, models flood
// traffic still occupying wire share. Exactly one frame is on the wire at
// a time, so its target lives in one variable and both callbacks are made
// once, not per frame.
func (m *Machine) startIngress() {
	seq := 0
	var t *Tenant
	var arrive func(when uint64)
	send := func(now uint64) {
		t = m.pickTarget(seq)
		seq++
		m.Eng.Schedule(m.Wire.Reserve(now, m.cfg.FrameSize), arrive)
	}
	arrive = func(when uint64) {
		m.deliverFrame(t, when)
		send(when)
	}
	m.Eng.Schedule(0, send)
}

func (m *Machine) pickTarget(seq int) *Tenant {
	if m.hostileT != nil && seq%4 == 3 {
		return m.hostileT
	}
	t := m.benign[m.rr%len(m.benign)]
	m.rr++
	return t
}

// deliverFrame is the device-side arrival path: quarantined tenants are
// dropped at the root (one map lookup — the cheap containment the
// resilience engine provides), everything else goes through the scheme.
func (m *Machine) deliverFrame(t *Tenant, now uint64) {
	m.FramesOnWire++
	if m.U.Blocked(tenantDev(t.ID)) {
		t.Stats.BlockDrops++
		return
	}
	m.scheme.deliver(m, t, now)
}
