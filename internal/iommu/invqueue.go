package iommu

import (
	"errors"

	"repro/internal/cycles"
	"repro/internal/sim"
)

// ErrInvTimeout is the invalidation-time-out error (the VT-d ITE fault):
// a wait-descriptor poll gave up because the hardware did not reach the
// requested completion within the queue's Timeout budget. Callers match it
// with errors.Is and either retry (bounded backoff) or invoke Recover.
var ErrInvTimeout = errors.New("iommu: invalidation wait timed out (ITE)")

// InvQueue models the IOMMU invalidation queue: a cyclic buffer of commands
// that the IOMMU hardware processes serially and asynchronously. Submission
// is serialized by a single spinlock (Queue.Lock), which the paper
// identifies as the scalability bottleneck of strict protection (§2.2.1):
// under concurrent invalidations the lock, not the hardware, dominates.
type InvQueue struct {
	eng   *sim.Engine
	u     *IOMMU
	costs *cycles.Costs

	// Lock serializes access to the queue registers. Callers must hold
	// it across Submit calls (and, for strict protection, across the
	// completion wait — as Linux's intel-iommu driver does).
	Lock *sim.Spinlock

	// StallCycles, when non-zero, adds that many cycles of extra hardware
	// latency to every submitted invalidation — a fault-injection hook
	// modeling a stalled/backlogged invalidation queue (internal/dmafuzz).
	// It widens the deferred vulnerability window and lengthens strict
	// waits, but never changes completion ordering.
	StallCycles uint64

	// Timeout, when non-zero, bounds how many cycles a WaitForErr /
	// WaitRecover poll will spin past "now" before surfacing ErrInvTimeout
	// (the ITE condition). Zero (the default) means wait forever — the
	// pre-recovery behaviour, bit-identical to WaitFor.
	Timeout uint64
	// RetryBackoff is WaitRecover's initial inter-retry backoff (doubles
	// per retry); MaxRetries bounds the retries before Recover runs.
	RetryBackoff uint64
	MaxRetries   int

	hwFreeAt uint64

	// Stats
	Submitted  uint64
	Completed  uint64
	Timeouts   uint64 // ITE conditions surfaced by WaitForErr
	Recoveries uint64 // queue drains performed by Recover
}

func newInvQueue(eng *sim.Engine, u *IOMMU, costs *cycles.Costs) *InvQueue {
	return &InvQueue{
		eng:          eng,
		u:            u,
		costs:        costs,
		RetryBackoff: costs.IOTLBInvalidateHW,
		MaxRetries:   3,
		Lock: sim.NewSpinlock("invq", cycles.TagSpinlock, sim.LockCosts{
			Uncontended:      costs.LockUncontended,
			HandoffBase:      costs.LockHandoffBase,
			HandoffPerWaiter: costs.LockHandoffPerWaiter,
		}),
	}
}

// submit queues one invalidation command whose effect runs when the
// hardware gets to it, and returns the completion time. Caller holds Lock.
func (q *InvQueue) submit(p *sim.Proc, effect func()) uint64 {
	p.ChargeSpan("inval-submit", cycles.TagInvalidate, q.costs.InvSubmit)
	start := q.hwFreeAt
	if p.Now() > start {
		start = p.Now()
	}
	done := start + q.costs.IOTLBInvalidateHW + q.StallCycles
	q.hwFreeAt = done
	q.Submitted++
	if q.u.OnEvent != nil {
		q.u.emit(Event{Kind: EventInval, Arg: done})
	}
	q.eng.Schedule(done, func(uint64) {
		effect()
		q.Completed++
	})
	return done
}

// SubmitPages queues a page-selective invalidation (PSI) for npages IOVA
// pages of dev starting at page, returning its completion time.
func (q *InvQueue) SubmitPages(p *sim.Proc, dev DeviceID, page, npages uint64) uint64 {
	return q.submit(p, func() { q.u.tlb.InvalidatePages(dev, page, npages) })
}

// SubmitGlobal queues a global invalidation (used by the batched deferred
// flush, as in Linux).
func (q *InvQueue) SubmitGlobal(p *sim.Proc) uint64 {
	return q.submit(p, func() { q.u.tlb.InvalidateAll() })
}

// WaitFor busy-waits (wait-descriptor polling) until the hardware reaches
// completion time t. The spin is accounted as IOTLB-invalidation time (and
// attributed to an "inval-wait" span when profiling).
func (q *InvQueue) WaitFor(p *sim.Proc, t uint64) {
	if p.Observed() {
		p.SpanEnter("inval-wait")
		defer p.SpanExit()
	}
	p.SpinUntil(cycles.TagInvalidate, t)
}

// WaitForErr is WaitFor with the ITE deadline applied: if the requested
// completion time lies within Timeout cycles of now (or Timeout is zero)
// it waits to completion and returns nil; otherwise it spins out the full
// Timeout budget — the wait descriptor really is polled that long — and
// returns ErrInvTimeout.
func (q *InvQueue) WaitForErr(p *sim.Proc, t uint64) error {
	if q.Timeout == 0 || t <= p.Now()+q.Timeout {
		q.WaitFor(p, t)
		return nil
	}
	q.WaitFor(p, p.Now()+q.Timeout)
	q.Timeouts++
	if q.u.OnEvent != nil {
		q.u.emit(Event{Kind: EventInvalTimeout, Arg: t})
	}
	return ErrInvTimeout
}

// Recover models the DMAR driver's IQE/ITE handler: the stuck queue is
// drained (the hardware head is reset to now, abandoning backlogged
// commands) and a synchronous conservative global invalidation stands in
// for whatever was abandoned — protection is preserved by
// over-invalidation, exactly the safe direction to err in.
func (q *InvQueue) Recover(p *sim.Proc) {
	p.ChargeSpan("resilience.invq-recover", cycles.TagInvalidate, q.costs.IOTLBInvalidateHW)
	q.u.tlb.InvalidateAll()
	if q.hwFreeAt > p.Now() {
		q.hwFreeAt = p.Now()
	}
	q.Recoveries++
	if q.u.OnEvent != nil {
		q.u.emit(Event{Kind: EventInvalRecover})
	}
}

// WaitRecover waits for completion time t with full ITE handling: on
// timeout it retries with doubling backoff up to MaxRetries times (the
// deadline is re-measured from the retry's "now", so a slow-but-finite
// stall still completes), then gives up and runs Recover. It never fails;
// with Timeout == 0 it is exactly WaitFor. This is the wait every
// protection strategy uses.
func (q *InvQueue) WaitRecover(p *sim.Proc, t uint64) {
	if q.Timeout == 0 {
		q.WaitFor(p, t)
		return
	}
	backoff := q.RetryBackoff
	for attempt := 0; ; attempt++ {
		if q.WaitForErr(p, t) == nil {
			return
		}
		if attempt >= q.MaxRetries {
			q.Recover(p)
			return
		}
		if p.Observed() {
			p.SpanEnter("resilience.inv-retry")
		}
		p.SpinUntil(cycles.TagInvalidate, p.Now()+backoff)
		if p.Observed() {
			p.SpanExit()
		}
		backoff *= 2
	}
}

// SubmitGlobalAt queues a global invalidation from timer/interrupt context
// (no CPU-cost accounting — the work happens off the measured cores),
// returning its completion time.
func (q *InvQueue) SubmitGlobalAt(now uint64) uint64 {
	start := q.hwFreeAt
	if now > start {
		start = now
	}
	done := start + q.costs.IOTLBInvalidateHW + q.StallCycles
	q.hwFreeAt = done
	q.Submitted++
	q.eng.Schedule(done, func(uint64) {
		q.u.tlb.InvalidateAll()
		q.Completed++
	})
	return done
}
