// Package nic simulates a 40 Gb/s NIC in the mold of the paper's Intel
// Fortville XL710: per-core receive/transmit descriptor rings, TCP
// segmentation offload (TSO) for buffers up to 64 KiB, a shared full-duplex
// wire, and a DMA engine that reads and writes host memory exclusively
// through the IOMMU. Hooks expose every DMA the device performs so the
// attack suite can model a compromised NIC replaying or scanning IOVAs.
package nic

import (
	"repro/internal/cycles"
	"repro/internal/iommu"
	"repro/internal/sim"
)

// Config parameterizes the simulated NIC.
type Config struct {
	Dev      iommu.DeviceID
	Queues   int // one queue pair per core, as in the paper's methodology
	RingSize int
	MTU      int  // wire MSS payload (1500 in the paper)
	TSO      bool // segment up to 64 KiB TX buffers in hardware
	Costs    *cycles.Costs
}

// NIC is the simulated device.
type NIC struct {
	eng *sim.Engine
	u   *iommu.IOMMU
	cfg Config

	queues []*Queue
	rxWire *Wire // traffic-generator -> us
	txWire *Wire // us -> traffic-generator

	// RxDMAHook observes every receive DMA the device performs (queue,
	// IOVA, bytes). A compromised NIC (examples/malicious-nic) uses it
	// to remember IOVAs for replay.
	RxDMAHook func(q int, addr iommu.IOVA, n int)
	// TxDMAHook observes every transmit DMA (payload fetch).
	TxDMAHook func(q int, addr iommu.IOVA, n int)
	// TxDeliveredHook fires when a transmitted frame's last bit reaches
	// the remote machine (for request/response latency measurement).
	TxDeliveredHook func(q int, at uint64, payloadBytes int)
	// RxPostHook observes every RX descriptor the driver posts (queue,
	// IOVA, buffer length). Descriptors are device-visible by design, so
	// this is the legitimate channel through which a compromised device
	// learns DMA addresses; internal/campaign's attacker notebook rides
	// on it.
	RxPostHook func(q int, addr iommu.IOVA, n int)

	// Stats
	RxFrames, TxFrames uint64
	RxDrops            uint64
	RxFaults, TxFaults uint64
	RxBytes, TxBytes   uint64
	TxSkbs             uint64
	RxNoBufDrops       uint64
	// Quarantine drops: frames/descriptors rejected because the device
	// is blocked at the IOMMU root (internal/resilience). RX drops
	// consume no descriptor — posted credits survive the quarantine — so
	// readmission resumes with a full ring.
	RxQuarantineDrops uint64
	TxQuarantineDrops uint64
}

// Queue is one RX/TX queue pair with its completion queues and interrupt
// conditions.
type Queue struct {
	nic *NIC
	idx int

	RxRing *Ring[Desc]
	TxRing *Ring[Desc]

	rxComp []RxCompletion
	RxCond *sim.Cond

	txComp        []Desc
	TxCond        *sim.Cond
	txOutstanding int // posted but not yet completed (bounds in-flight)

	txBusyTill uint64 // per-queue DMA engine availability

	// txStage is the DMA engine's payload staging buffer, reused across
	// descriptors: the fetched bytes only feed the wire accounting and
	// are dead once deviceTx moves on.
	txStage []byte

	// onCredit is invoked (engine context) whenever the driver posts a
	// new RX buffer; traffic sources use it to resume when the receiver
	// was the bottleneck.
	onCredit func(now uint64)
}

// RxCompletion reports one received frame.
type RxCompletion struct {
	Desc Desc
	Len  int
}

// New creates the NIC.
func New(eng *sim.Engine, u *iommu.IOMMU, cfg Config) *NIC {
	if cfg.Queues < 1 {
		cfg.Queues = 1
	}
	if cfg.MTU <= 0 {
		cfg.MTU = 1500
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 256
	}
	n := &NIC{
		eng:    eng,
		u:      u,
		cfg:    cfg,
		rxWire: NewWire(cfg.Costs),
		txWire: NewWire(cfg.Costs),
	}
	for i := 0; i < cfg.Queues; i++ {
		n.queues = append(n.queues, &Queue{
			nic:    n,
			idx:    i,
			RxRing: NewRing(cfg.RingSize),
			TxRing: NewRing(cfg.RingSize),
			RxCond: sim.NewCond("rx"),
			TxCond: sim.NewCond("tx"),
		})
		// Attach-time interrupt setup: the OS grants one MSI vector per
		// queue pair, programming the IOMMU's interrupt-remapping table.
		// Anything else the device signals is spurious (iommu/msi.go).
		u.GrantMSI(cfg.Dev, msiVector(i))
	}
	return n
}

// msiVector is queue i's granted interrupt vector.
func msiVector(q int) uint32 { return 32 + uint32(q) }

// Queue returns queue pair i.
func (n *NIC) Queue(i int) *Queue { return n.queues[i] }

// Config returns the NIC configuration.
func (n *NIC) Config() Config { return n.cfg }

// RxWire and TxWire expose the two wire directions.
func (n *NIC) RxWire() *Wire { return n.rxWire }

// TxWire returns the transmit-direction wire.
func (n *NIC) TxWire() *Wire { return n.txWire }

// MaxTxBuf returns the largest transmit buffer the driver may post: 64 KiB
// with TSO, one MTU without.
func (n *NIC) MaxTxBuf() int {
	if n.cfg.TSO {
		return 64 * 1024
	}
	return n.cfg.MTU
}

// ---- Receive path (device side, engine context) ----

// SetCreditHook registers the traffic source's resume callback for queue q.
func (q *Queue) SetCreditHook(fn func(now uint64)) { q.onCredit = fn }

// PostRx posts a receive buffer (driver context). It notifies the traffic
// source that receive credit is available.
func (q *Queue) PostRx(p *sim.Proc, d Desc) bool {
	if !q.RxRing.Post(d) {
		return false
	}
	if q.nic.RxPostHook != nil {
		q.nic.RxPostHook(q.idx, d.Addr, d.Len)
	}
	if q.onCredit != nil {
		q.onCredit(p.Now())
	}
	return true
}

// RxCredits returns the number of posted receive buffers (the flow-control
// window the traffic generator sees).
func (q *Queue) RxCredits() int { return q.RxRing.Len() }

// DeliverFrame lands one wire frame into the queue (engine context, called
// by a traffic source at wire-arrival time). The payload is DMA-written
// through the IOMMU into the next posted buffer; translation faults drop
// the frame (and are visible in the IOMMU fault log).
func (q *Queue) DeliverFrame(now uint64, payload []byte) {
	n := q.nic
	if n.u.Blocked(n.cfg.Dev) {
		// Quarantined: the root port would reject the DMA, so don't even
		// consume a descriptor — the drop costs nothing, no translation
		// is attempted, and the posted buffers survive for readmission.
		n.RxQuarantineDrops++
		return
	}
	d, ok := q.RxRing.Pop()
	if !ok {
		n.RxNoBufDrops++
		return
	}
	ln := len(payload)
	if ln > d.Len {
		ln = d.Len
	}
	if n.RxDMAHook != nil {
		n.RxDMAHook(q.idx, d.Addr, ln)
	}
	res := n.u.DMAWrite(n.cfg.Dev, d.Addr, payload[:ln])
	if res.Fault != nil {
		n.RxFaults++
		n.RxDrops++
		return
	}
	n.RxFrames++
	n.RxBytes += uint64(ln)
	q.rxComp = append(q.rxComp, RxCompletion{Desc: d, Len: ln})
	// Interrupt after the IRQ delivery latency; NAPI-style batching
	// happens naturally because the driver drains everything pending.
	// The doorbell write is the MSI that carries it (accounting only —
	// no simulated time, no gated metrics).
	n.u.MSIWrite(n.cfg.Dev, iommu.MSIBase, msiVector(q.idx))
	q.RxCond.SignalAt(now+res.Latency+n.cfg.Costs.IRQLatency, 1)
}

// DrainRx takes all pending receive completions (driver context).
func (q *Queue) DrainRx() []RxCompletion {
	out := q.rxComp
	q.rxComp = nil
	return out
}

// HasRx reports whether receive completions are pending.
func (q *Queue) HasRx() bool { return len(q.rxComp) > 0 }

// ---- Transmit path ----

// PostTx posts a transmit descriptor and rings the doorbell (driver
// context). It reports false when the ring is full.
func (q *Queue) PostTx(p *sim.Proc, d Desc) bool {
	if d.Len > q.nic.MaxTxBuf() {
		return false
	}
	if q.txOutstanding >= q.TxRing.Size() {
		return false // hardware owns the whole ring; wait for completions
	}
	if !q.TxRing.Post(d) {
		return false
	}
	q.txOutstanding++
	q.nic.eng.Schedule(p.Now(), q.deviceTx)
	return true
}

// deviceTx is the device-side transmit engine for this queue: it fetches
// descriptors, DMA-reads payloads through the IOMMU, segments (TSO) and
// puts frames on the shared wire.
func (q *Queue) deviceTx(now uint64) {
	n := q.nic
	for {
		d, ok := q.TxRing.Pop()
		if !ok {
			return
		}
		if n.u.Blocked(n.cfg.Dev) {
			// Quarantined: skip the payload fetch entirely and complete
			// the descriptor as an error, so the driver never wedges on
			// a ring the hardware will not drain.
			n.TxQuarantineDrops++
			q.completeTx(now, d)
			continue
		}
		if n.TxDMAHook != nil {
			n.TxDMAHook(q.idx, d.Addr, d.Len)
		}
		if cap(q.txStage) < d.Len {
			q.txStage = make([]byte, d.Len)
		}
		res := n.u.DMARead(n.cfg.Dev, d.Addr, q.txStage[:d.Len])
		start := now
		if q.txBusyTill > start {
			start = q.txBusyTill
		}
		// Payload fetch latency is pipelined with transmission (the DMA
		// engine prefetches ahead of the serializer), so it does not
		// delay the wire.
		if res.Fault != nil {
			n.TxFaults++
			// The DMA aborted: complete the descriptor with an error
			// (drivers see it as a TX hang/error completion).
			q.completeTx(start, d)
			continue
		}
		// Segment and transmit.
		last := start
		qi := q.idx
		for off := 0; off < d.Len; off += n.cfg.MTU {
			seg := d.Len - off
			if seg > n.cfg.MTU {
				seg = n.cfg.MTU
			}
			last = n.txWire.Reserve(last, seg)
			n.TxFrames++
			n.TxBytes += uint64(seg)
			if n.TxDeliveredHook != nil {
				hookAt := last + n.cfg.Costs.DMALatency
				segLen := seg
				n.eng.Schedule(hookAt, func(at uint64) {
					n.TxDeliveredHook(qi, at, segLen)
				})
			}
		}
		n.TxSkbs++
		q.txBusyTill = last
		q.completeTx(last, d)
	}
}

func (q *Queue) completeTx(at uint64, d Desc) {
	n := q.nic
	n.u.MSIWrite(n.cfg.Dev, iommu.MSIBase, msiVector(q.idx))
	n.eng.Schedule(at+n.cfg.Costs.IRQLatency, func(now uint64) {
		q.txOutstanding--
		q.txComp = append(q.txComp, d)
		q.TxCond.SignalAt(now, 1)
	})
}

// DrainTx takes all pending transmit completions (driver context).
func (q *Queue) DrainTx() []Desc {
	out := q.txComp
	q.txComp = nil
	return out
}

// HasTx reports whether transmit completions are pending.
func (q *Queue) HasTx() bool { return len(q.txComp) > 0 }

// TxInFlight returns the number of posted-but-uncompleted TX descriptors.
func (q *Queue) TxInFlight() int { return q.txOutstanding }
