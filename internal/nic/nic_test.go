package nic

import (
	"bytes"
	"testing"

	"repro/internal/cycles"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/sim"
)

func TestRingFIFO(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 3; i++ {
		if !r.Post(Desc{Addr: iommu.IOVA(i), Len: 100}) {
			t.Fatalf("post %d failed", i)
		}
	}
	if r.Post(Desc{}) {
		t.Error("post to full ring should fail")
	}
	if !r.Full() || r.Len() != 3 {
		t.Error("ring state wrong")
	}
	for i := 0; i < 3; i++ {
		d, ok := r.Pop()
		if !ok || d.Addr != iommu.IOVA(i) {
			t.Fatalf("pop %d = %+v ok=%v", i, d, ok)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("pop from empty ring should fail")
	}
	// Wraparound.
	for i := 0; i < 10; i++ {
		if !r.Post(Desc{Addr: iommu.IOVA(100 + i)}) {
			t.Fatal("wrap post failed")
		}
		d, _ := r.Pop()
		if d.Addr != iommu.IOVA(100+i) {
			t.Fatal("wraparound order broken")
		}
	}
}

func TestWireSerializes(t *testing.T) {
	c := cycles.Default()
	w := NewWire(c)
	e1 := w.Reserve(0, 1500)
	e2 := w.Reserve(0, 1500)
	if e2 <= e1 {
		t.Error("second frame must queue behind the first")
	}
	per := c.WireCycles(1500 + frameOverhead)
	if e2-e1 != per {
		t.Errorf("spacing = %d, want %d", e2-e1, per)
	}
	// Line rate: 40 Gb/s of 1500 B payload frames.
	gbps := cycles.Gbps(1500, per)
	if gbps < 37 || gbps > 40 {
		t.Errorf("payload throughput at line rate = %.1f Gb/s", gbps)
	}
}

type nicRig struct {
	eng *sim.Engine
	m   *mem.Memory
	u   *iommu.IOMMU
	n   *NIC
}

func newNICRig(queues int, tso bool) *nicRig {
	eng := sim.NewEngine()
	m := mem.New(1)
	u := iommu.New(eng, m, cycles.Default())
	u.SetPassthrough(7, true)
	n := New(eng, u, Config{Dev: 7, Queues: queues, RingSize: 16, MTU: 1500, TSO: tso, Costs: cycles.Default()})
	return &nicRig{eng: eng, m: m, u: u, n: n}
}

func TestRxDeliveryThroughDMA(t *testing.T) {
	r := newNICRig(1, false)
	q := r.n.Queue(0)
	buf, _ := r.m.AllocPages(0, 1)
	var got []RxCompletion
	r.eng.Spawn("drv", 0, 0, func(p *sim.Proc) {
		q.PostRx(p, Desc{Addr: iommu.IOVA(buf), Len: 2048})
		q.RxCond.WaitUntil(p, q.HasRx)
		got = q.DrainRx()
	})
	src := NewSource(r.eng, q, cycles.Default(), 1000, 1500, false)
	src.SetPayload(func(_, _ int, b []byte) {
		for i := range b {
			b[i] = 0xCD
		}
	})
	r.eng.Schedule(100, func(now uint64) { src.EnqueueMessage(now) })
	r.eng.Run(1 << 30)
	r.eng.Stop()
	if len(got) != 1 || got[0].Len != 1000 {
		t.Fatalf("completions: %+v", got)
	}
	data := make([]byte, 1000)
	r.m.Read(buf, data)
	if !bytes.Equal(data, bytes.Repeat([]byte{0xCD}, 1000)) {
		t.Error("payload did not land in the posted buffer")
	}
	if r.n.RxFrames != 1 || r.n.RxBytes != 1000 {
		t.Errorf("stats: %d frames %d bytes", r.n.RxFrames, r.n.RxBytes)
	}
}

func TestRxFaultDropsFrame(t *testing.T) {
	r := newNICRig(1, false)
	r.u.SetPassthrough(7, false) // no mappings: every DMA faults
	q := r.n.Queue(0)
	r.eng.Spawn("drv", 0, 0, func(p *sim.Proc) {
		q.PostRx(p, Desc{Addr: 0xdead000, Len: 2048})
	})
	src := NewSource(r.eng, q, cycles.Default(), 500, 1500, false)
	r.eng.Schedule(0, func(now uint64) { src.EnqueueMessage(now) })
	r.eng.Run(1 << 30)
	r.eng.Stop()
	if r.n.RxFaults != 1 || r.n.RxDrops != 1 {
		t.Errorf("faults=%d drops=%d, want 1/1", r.n.RxFaults, r.n.RxDrops)
	}
	if q.HasRx() {
		t.Error("faulted frame must not complete")
	}
}

func TestSourceRespectsCredits(t *testing.T) {
	r := newNICRig(1, false)
	q := r.n.Queue(0)
	buf, _ := r.m.AllocPages(0, 4)
	src := NewSource(r.eng, q, cycles.Default(), 1500, 1500, true) // open loop
	src.Start(0)
	delivered := 0
	r.eng.Spawn("drv", 0, 0, func(p *sim.Proc) {
		// Post only 3 buffers and never repost.
		for i := 0; i < 3; i++ {
			q.PostRx(p, Desc{Addr: iommu.IOVA(buf) + iommu.IOVA(i*2048), Len: 2048})
		}
		for delivered < 3 {
			q.RxCond.WaitUntil(p, q.HasRx)
			delivered += len(q.DrainRx())
		}
	})
	r.eng.Run(cycles.FromMillis(5))
	src.Stop()
	r.eng.Stop()
	if delivered != 3 {
		t.Fatalf("delivered = %d", delivered)
	}
	// Open-loop source with zero credit must stall, not drop.
	if r.n.RxNoBufDrops != 0 {
		t.Errorf("credit-based source should never hit an empty ring, drops=%d", r.n.RxNoBufDrops)
	}
	if src.FramesSent != 3 {
		t.Errorf("frames sent = %d, want 3 (stalled on credit)", src.FramesSent)
	}
}

func TestSourceSyscallRateCap(t *testing.T) {
	r := newNICRig(1, false)
	q := r.n.Queue(0)
	buf, _ := r.m.AllocPages(0, 1)
	c := cycles.Default()
	src := NewSource(r.eng, q, c, 64, 1500, true)
	src.Start(0)
	count := 0
	r.eng.Spawn("drv", 0, 0, func(p *sim.Proc) {
		q.PostRx(p, Desc{Addr: iommu.IOVA(buf), Len: 2048})
		for {
			q.RxCond.WaitUntil(p, q.HasRx)
			count += len(q.DrainRx())
			q.PostRx(p, Desc{Addr: iommu.IOVA(buf), Len: 2048})
		}
	})
	window := cycles.FromMillis(10)
	r.eng.Run(window)
	src.Stop()
	r.eng.Stop()
	rate := cycles.PerSec(uint64(count), window)
	// 64 B messages: capped by the sender's ~1M syscalls/s, not the wire.
	if rate > 1.1e6 || rate < 0.5e6 {
		t.Errorf("64B message rate = %.0f/s, want ~1M (syscall cap)", rate)
	}
}

func TestTxTSOSegmentsAndCompletes(t *testing.T) {
	r := newNICRig(1, true)
	q := r.n.Queue(0)
	buf, _ := r.m.AllocPages(0, 16)
	size := 64 * 1024
	var comps []Desc
	var deliveredBytes int
	r.n.TxDeliveredHook = func(qi int, at uint64, n int) { deliveredBytes += n }
	r.eng.Spawn("drv", 0, 0, func(p *sim.Proc) {
		if !q.PostTx(p, Desc{Addr: iommu.IOVA(buf), Len: size}) {
			t.Error("post failed")
			return
		}
		q.TxCond.WaitUntil(p, q.HasTx)
		comps = q.DrainTx()
	})
	r.eng.Run(1 << 32)
	r.eng.Stop()
	if len(comps) != 1 {
		t.Fatalf("completions = %d", len(comps))
	}
	wantFrames := (size + 1499) / 1500
	if int(r.n.TxFrames) != wantFrames {
		t.Errorf("TSO produced %d frames, want %d", r.n.TxFrames, wantFrames)
	}
	if deliveredBytes != size {
		t.Errorf("delivered %d bytes, want %d", deliveredBytes, size)
	}
	if r.n.TxSkbs != 1 {
		t.Errorf("skbs = %d", r.n.TxSkbs)
	}
}

func TestTxWithoutTSORejectsBigBuffers(t *testing.T) {
	r := newNICRig(1, false)
	q := r.n.Queue(0)
	r.eng.Spawn("drv", 0, 0, func(p *sim.Proc) {
		if q.PostTx(p, Desc{Addr: 0x1000, Len: 64 * 1024}) {
			t.Error("non-TSO NIC must reject 64 KiB buffers")
		}
		if r.n.MaxTxBuf() != 1500 {
			t.Errorf("MaxTxBuf = %d", r.n.MaxTxBuf())
		}
	})
	r.eng.Run(1 << 20)
	r.eng.Stop()
}

func TestTxFaultCompletesWithError(t *testing.T) {
	r := newNICRig(1, true)
	r.u.SetPassthrough(7, false)
	q := r.n.Queue(0)
	done := false
	r.eng.Spawn("drv", 0, 0, func(p *sim.Proc) {
		q.PostTx(p, Desc{Addr: 0xbad000, Len: 1000})
		q.TxCond.WaitUntil(p, q.HasTx)
		done = true
	})
	r.eng.Run(1 << 32)
	r.eng.Stop()
	if !done {
		t.Fatal("faulted TX must still complete (error completion)")
	}
	if r.n.TxFaults != 1 {
		t.Errorf("TxFaults = %d", r.n.TxFaults)
	}
	if r.n.TxFrames != 0 {
		t.Error("faulted skb must not reach the wire")
	}
}

func TestRxDMAHookObservesIOVAs(t *testing.T) {
	r := newNICRig(1, false)
	q := r.n.Queue(0)
	buf, _ := r.m.AllocPages(0, 1)
	var seen []iommu.IOVA
	r.n.RxDMAHook = func(qi int, a iommu.IOVA, n int) { seen = append(seen, a) }
	src := NewSource(r.eng, q, cycles.Default(), 100, 1500, false)
	r.eng.Spawn("drv", 0, 0, func(p *sim.Proc) {
		q.PostRx(p, Desc{Addr: iommu.IOVA(buf), Len: 2048})
	})
	r.eng.Schedule(10, func(now uint64) { src.EnqueueMessage(now) })
	r.eng.Run(1 << 30)
	r.eng.Stop()
	if len(seen) != 1 || seen[0] != iommu.IOVA(buf) {
		t.Errorf("hook saw %v", seen)
	}
}

func TestWireAggregatesMultipleQueues(t *testing.T) {
	// Two queues share the TX wire: total throughput is wire-capped.
	r := newNICRig(2, true)
	buf, _ := r.m.AllocPages(0, 32)
	for qi := 0; qi < 2; qi++ {
		q := r.n.Queue(qi)
		r.eng.Spawn("drv", qi, 0, func(p *sim.Proc) {
			for {
				for !q.PostTx(p, Desc{Addr: iommu.IOVA(buf), Len: 16 * 1024}) {
					q.TxCond.WaitUntil(p, q.HasTx)
					q.DrainTx()
				}
				if q.HasTx() {
					q.DrainTx()
				}
				p.Work("w", 100)
			}
		})
	}
	window := cycles.FromMillis(5)
	r.eng.Run(window)
	r.eng.Stop()
	gbps := cycles.Gbps(r.n.TxBytes, window)
	if gbps > 40.5 {
		t.Errorf("aggregate TX %.1f Gb/s exceeds the 40 Gb/s wire", gbps)
	}
	if gbps < 30 {
		t.Errorf("aggregate TX %.1f Gb/s too low for saturating senders", gbps)
	}
}

// TestDrainRxReusesCompletionArrays: a drained slice keeps its entries
// while new completions arrive, until the next DrainRx; and a steady
// deliver/drain cycle allocates nothing.
func TestDrainRxReusesCompletionArrays(t *testing.T) {
	r := newNICRig(1, false)
	q := r.n.Queue(0)
	buf, err := r.m.AllocPages(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256)
	deliver := func(n int) {
		for i := 0; i < n; i++ {
			if !q.RxRing.Post(Desc{Addr: iommu.IOVA(buf), Len: 100 + i}) {
				t.Fatal("ring full")
			}
			q.DeliverFrame(0, payload)
		}
	}
	deliver(2)
	first := q.DrainRx()
	deliver(3)
	if len(first) != 2 || first[0].Len != 100 || first[1].Len != 101 {
		t.Fatalf("drained completions changed before the next drain: %+v", first)
	}
	second := q.DrainRx()
	if len(second) != 3 || second[2].Len != 102 {
		t.Fatalf("second drain: %+v", second)
	}
	if q.HasRx() {
		t.Fatal("completions pending after a drain")
	}
	if n := testing.AllocsPerRun(100, func() {
		deliver(4)
		if got := len(q.DrainRx()); got != 4 {
			t.Fatalf("drained %d completions, want 4", got)
		}
	}); n != 0 {
		t.Errorf("a steady deliver/drain cycle allocates: %v allocs per 4 frames", n)
	}
}

// TestTxCycleAllocatesNothing: a steady post/complete/drain cycle
// allocates nothing, and completions reach the driver in posting order.
func TestTxCycleAllocatesNothing(t *testing.T) {
	r := newNICRig(1, true)
	q := r.n.Queue(0)
	buf, err := r.m.AllocPages(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	hasTx := q.HasTx
	r.eng.Spawn("drv", 0, 0, func(p *sim.Proc) {
		for {
			for i := 0; i < 4; i++ {
				if !q.PostTx(p, Desc{Addr: iommu.IOVA(buf), Len: 1000 + i}) {
					t.Error("post failed")
					return
				}
			}
			for got := 0; got < 4; {
				q.TxCond.WaitUntil(p, hasTx)
				for _, d := range q.DrainTx() {
					if d.Len != 1000+got {
						t.Errorf("completion %d has length %d", got, d.Len)
					}
					got++
				}
			}
			rounds++
		}
	})
	step := cycles.FromMicros(10)
	r.eng.Run(step)
	before := rounds
	if n := testing.AllocsPerRun(20, func() { r.eng.Run(r.eng.Now() + step) }); n != 0 {
		t.Errorf("a steady TX cycle allocates: %v allocs per %v", n, step)
	}
	r.eng.Stop()
	if rounds-before < 20 {
		t.Fatalf("only %d TX rounds ran", rounds-before)
	}
}
