package dmaapi

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/cycles"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/sim"
)

func newEnv(cores int) *Env {
	eng := sim.NewEngine()
	m := mem.New(2)
	u := iommu.New(eng, m, cycles.Default())
	return &Env{Eng: eng, Mem: m, IOMMU: u, Costs: cycles.Default(), Dev: 1, Cores: cores}
}

// inProc runs fn as a single simulated core and drives the engine to
// completion (plus slack for async hardware effects).
func inProc(t *testing.T, env *Env, fn func(p *sim.Proc)) {
	t.Helper()
	env.Eng.Spawn("test", 0, 0, fn)
	env.Eng.Run(1 << 40)
	env.Eng.Stop()
}

func allocBuf(t *testing.T, env *Env, size int) mem.Buf {
	t.Helper()
	k := NewKmallocFor(env)
	b, err := k.Alloc(0, size)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// NewKmallocFor is a tiny helper so tests share one allocator per env.
var kmallocs = map[*Env]*mem.Kmalloc{}

func NewKmallocFor(env *Env) *mem.Kmalloc {
	k, ok := kmallocs[env]
	if !ok {
		k = mem.NewKmalloc(env.Mem, nil)
		kmallocs[env] = k
	}
	return k
}

func TestNoIOMMUPassthrough(t *testing.T) {
	env := newEnv(1)
	m := NewNoIOMMU(env)
	buf := allocBuf(t, env, 1500)
	inProc(t, env, func(p *sim.Proc) {
		addr, err := m.Map(p, buf, FromDevice)
		if err != nil {
			t.Fatal(err)
		}
		if addr != iommu.IOVA(buf.Addr) {
			t.Errorf("noiommu IOVA should equal phys")
		}
		res := env.IOMMU.DMAWrite(env.Dev, addr, []byte("data"))
		if res.Fault != nil {
			t.Fatal(res.Fault)
		}
		if err := m.Unmap(p, addr, buf.Size, FromDevice); err != nil {
			t.Fatal(err)
		}
		// No protection: the device can still write after unmap, and can
		// write anywhere allocated.
		if res := env.IOMMU.DMAWrite(env.Dev, addr, []byte("more")); res.Fault != nil {
			t.Error("noiommu should never fault")
		}
	})
}

func TestStrictProtectsImmediately(t *testing.T) {
	env := newEnv(1)
	m := NewLinux(env, false)
	buf := allocBuf(t, env, 1500)
	inProc(t, env, func(p *sim.Proc) {
		addr, err := m.Map(p, buf, FromDevice)
		if err != nil {
			t.Fatal(err)
		}
		if res := env.IOMMU.DMAWrite(env.Dev, addr, []byte("pkt")); res.Fault != nil {
			t.Fatal(res.Fault)
		}
		if err := m.Unmap(p, addr, buf.Size, FromDevice); err != nil {
			t.Fatal(err)
		}
		// Strict protection: by the time Unmap returns, the invalidation
		// has completed — no window.
		if res := env.IOMMU.DMAWrite(env.Dev, addr, []byte("evil")); res.Fault == nil {
			t.Error("device access after strict unmap must fault")
		}
	})
}

func TestStrictDirectionEnforced(t *testing.T) {
	env := newEnv(1)
	m := NewLinux(env, false)
	buf := allocBuf(t, env, 1500)
	inProc(t, env, func(p *sim.Proc) {
		addr, err := m.Map(p, buf, ToDevice) // device may only read
		if err != nil {
			t.Fatal(err)
		}
		if res := env.IOMMU.DMAWrite(env.Dev, addr, []byte("evil")); res.Fault == nil {
			t.Error("device write to a to-device mapping must fault")
		}
		if res := env.IOMMU.DMARead(env.Dev, addr, make([]byte, 16)); res.Fault != nil {
			t.Errorf("device read should work: %v", res.Fault)
		}
		if err := m.Unmap(p, addr, buf.Size, ToDevice); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDeferredLeavesWindowThenCloses(t *testing.T) {
	env := newEnv(1)
	m := NewLinux(env, true)
	buf := allocBuf(t, env, 1500)
	inProc(t, env, func(p *sim.Proc) {
		addr, err := m.Map(p, buf, FromDevice)
		if err != nil {
			t.Fatal(err)
		}
		// Device uses the mapping (loads the IOTLB).
		if res := env.IOMMU.DMAWrite(env.Dev, addr, []byte("pkt")); res.Fault != nil {
			t.Fatal(res.Fault)
		}
		if err := m.Unmap(p, addr, buf.Size, FromDevice); err != nil {
			t.Fatal(err)
		}
		// THE WINDOW: unmap returned, but the device can still write.
		if res := env.IOMMU.DMAWrite(env.Dev, addr, []byte("evil")); res.Fault != nil {
			t.Errorf("deferred window should be open: %v", res.Fault)
		}
		m.Quiesce(p)
		p.Sleep(cycles.FromMicros(5)) // let the hw drain
		if res := env.IOMMU.DMAWrite(env.Dev, addr, []byte("evil")); res.Fault == nil {
			t.Error("window must close after flush")
		}
	})
	if m.Stats().DeferredFlushes == 0 {
		t.Error("flush should be recorded")
	}
}

func TestDeferredFlushAtThreshold(t *testing.T) {
	env := newEnv(1)
	m := NewLinux(env, true)
	bufs := make([]mem.Buf, 250)
	for i := range bufs {
		bufs[i] = allocBuf(t, env, 2048)
	}
	inProc(t, env, func(p *sim.Proc) {
		for _, b := range bufs {
			addr, err := m.Map(p, b, FromDevice)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Unmap(p, addr, b.Size, FromDevice); err != nil {
				t.Fatal(err)
			}
		}
	})
	s := m.Stats()
	if s.DeferredFlushes != 1 {
		t.Errorf("flushes = %d, want exactly 1 (threshold 250)", s.DeferredFlushes)
	}
	if s.DeferredQueuePeak != 250 {
		t.Errorf("queue peak = %d, want 250", s.DeferredQueuePeak)
	}
}

func TestDeferredTimerFlush(t *testing.T) {
	env := newEnv(1)
	m := NewLinux(env, true)
	buf := allocBuf(t, env, 1500)
	var addr iommu.IOVA
	env.Eng.Spawn("test", 0, 0, func(p *sim.Proc) {
		a, err := m.Map(p, buf, FromDevice)
		if err != nil {
			t.Fatal(err)
		}
		env.IOMMU.DMAWrite(env.Dev, a, []byte("pkt"))
		if err := m.Unmap(p, a, buf.Size, FromDevice); err != nil {
			t.Fatal(err)
		}
		addr = a
	})
	// Run past the 10 ms timer (plus hw latency).
	env.Eng.Run(cycles.FromMillis(11))
	env.Eng.Stop()
	if m.Stats().DeferredFlushes != 1 {
		t.Fatalf("timer flush did not run")
	}
	if res := env.IOMMU.DMAWrite(env.Dev, addr, []byte("late")); res.Fault == nil {
		t.Error("window must close after the 10 ms timer flush")
	}
}

func TestIdentityIOVAIsPhysAndRefcounts(t *testing.T) {
	env := newEnv(1)
	m := NewIdentity(env, false)
	k := NewKmallocFor(env)
	// Two buffers co-located on one slab page.
	a, _ := k.Alloc(0, 2048)
	b, _ := k.Alloc(0, 2048)
	if !mem.SamePage(a, b) {
		t.Fatal("expected same-page buffers")
	}
	inProc(t, env, func(p *sim.Proc) {
		va, err := m.Map(p, a, FromDevice)
		if err != nil {
			t.Fatal(err)
		}
		if va != iommu.IOVA(a.Addr) {
			t.Error("identity IOVA must equal phys")
		}
		vb, err := m.Map(p, b, FromDevice)
		if err != nil {
			t.Fatal(err)
		}
		// Unmapping a must keep the page mapped for b (refcount).
		if err := m.Unmap(p, va, a.Size, FromDevice); err != nil {
			t.Fatal(err)
		}
		if res := env.IOMMU.DMAWrite(env.Dev, vb, []byte("ok")); res.Fault != nil {
			t.Errorf("page must stay mapped while b lives: %v", res.Fault)
		}
		if err := m.Unmap(p, vb, b.Size, FromDevice); err != nil {
			t.Fatal(err)
		}
		if res := env.IOMMU.DMAWrite(env.Dev, vb, []byte("no")); res.Fault == nil {
			t.Error("page must be unmapped after last ref drops (strict)")
		}
		if err := m.Unmap(p, vb, b.Size, FromDevice); err == nil {
			t.Error("double unmap should fail")
		}
	})
}

func TestIdentityDeferredWindow(t *testing.T) {
	env := newEnv(1)
	m := NewIdentity(env, true)
	buf := allocBuf(t, env, 1500)
	inProc(t, env, func(p *sim.Proc) {
		addr, _ := m.Map(p, buf, FromDevice)
		env.IOMMU.DMAWrite(env.Dev, addr, []byte("pkt"))
		m.Unmap(p, addr, buf.Size, FromDevice)
		if res := env.IOMMU.DMAWrite(env.Dev, addr, []byte("evil")); res.Fault != nil {
			t.Error("identity- must have the deferred window")
		}
		m.Quiesce(p)
		p.Sleep(cycles.FromMicros(5))
		if res := env.IOMMU.DMAWrite(env.Dev, addr, []byte("evil")); res.Fault == nil {
			t.Error("identity- window must close after flush")
		}
	})
}

func TestSGMapUnmapRoundTrip(t *testing.T) {
	env := newEnv(1)
	m := NewLinux(env, false)
	bufs := []mem.Buf{allocBuf(t, env, 512), allocBuf(t, env, 2048), allocBuf(t, env, 100)}
	inProc(t, env, func(p *sim.Proc) {
		addrs, err := m.MapSG(p, bufs, ToDevice)
		if err != nil {
			t.Fatal(err)
		}
		if len(addrs) != 3 {
			t.Fatalf("got %d addrs", len(addrs))
		}
		for i, a := range addrs {
			if res := env.IOMMU.DMARead(env.Dev, a, make([]byte, bufs[i].Size)); res.Fault != nil {
				t.Errorf("SG element %d unreadable: %v", i, res.Fault)
			}
		}
		sizes := []int{bufs[0].Size, bufs[1].Size, bufs[2].Size}
		if err := m.UnmapSG(p, addrs, sizes, ToDevice); err != nil {
			t.Fatal(err)
		}
		if err := m.UnmapSG(p, addrs, []int{1}, ToDevice); err == nil {
			t.Error("length mismatch should fail")
		}
	})
}

func TestCoherentAllocIsPageGranularAndShared(t *testing.T) {
	for _, deferred := range []bool{false, true} {
		env := newEnv(1)
		m := NewLinux(env, deferred)
		inProc(t, env, func(p *sim.Proc) {
			addr, buf, err := m.AllocCoherent(p, 100)
			if err != nil {
				t.Fatal(err)
			}
			if buf.Addr.Offset() != 0 {
				t.Error("coherent buffer must be page aligned")
			}
			// Device and CPU can both access it.
			if res := env.IOMMU.DMAWrite(env.Dev, addr, []byte("ring")); res.Fault != nil {
				t.Fatal(res.Fault)
			}
			got := make([]byte, 4)
			if err := env.Mem.Read(buf.Addr, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte("ring")) {
				t.Error("CPU should see device write via coherent buffer")
			}
			if err := m.FreeCoherent(p, addr, buf); err != nil {
				t.Fatal(err)
			}
			if res := env.IOMMU.DMAWrite(env.Dev, addr, []byte("x")); res.Fault == nil {
				t.Error("coherent buffer must be protected after free")
			}
		})
	}
}

func TestUnmapContractViolations(t *testing.T) {
	env := newEnv(1)
	m := NewLinux(env, false)
	buf := allocBuf(t, env, 1500)
	inProc(t, env, func(p *sim.Proc) {
		addr, _ := m.Map(p, buf, FromDevice)
		if err := m.Unmap(p, addr, buf.Size, ToDevice); err == nil {
			t.Error("direction mismatch should fail")
		}
		if err := m.Unmap(p, addr+0x100000, buf.Size, FromDevice); err == nil {
			t.Error("unknown IOVA should fail")
		}
		if err := m.Unmap(p, addr, buf.Size, FromDevice); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Map(p, mem.Buf{}, FromDevice); err == nil {
			t.Error("empty map should fail")
		}
	})
}

func TestStrictChargesInvalidationAndDeferredDoesNot(t *testing.T) {
	run := func(deferred bool) uint64 {
		env := newEnv(1)
		m := NewLinux(env, deferred)
		buf := allocBuf(t, env, 1500)
		var inval uint64
		inProc(t, env, func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				addr, err := m.Map(p, buf, FromDevice)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Unmap(p, addr, buf.Size, FromDevice); err != nil {
					t.Fatal(err)
				}
			}
			inval = p.TaggedCycles(cycles.TagInvalidate)
		})
		return inval
	}
	strict, deferred := run(false), run(true)
	c := cycles.Default()
	if strict < 100*c.IOTLBInvalidateHW {
		t.Errorf("strict invalidation cycles = %d, want >= %d", strict, 100*c.IOTLBInvalidateHW)
	}
	if deferred > strict/10 {
		t.Errorf("deferred invalidation cycles = %d should be far below strict %d", deferred, strict)
	}
}

func TestPagesOfProperty(t *testing.T) {
	f := func(off uint16, size uint16) bool {
		addr := uint64(off) % mem.PageSize
		n := int(size)
		if n == 0 {
			return PagesOf(addr, n) == 0
		}
		want := 0
		first := addr >> mem.PageShift
		last := (addr + uint64(n) - 1) >> mem.PageShift
		want = int(last - first + 1)
		return PagesOf(addr, n) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if PagesOf(0, mem.PageSize) != 1 || PagesOf(1, mem.PageSize) != 2 {
		t.Error("boundary cases wrong")
	}
}

func TestDomainOfCore(t *testing.T) {
	env := newEnv(16)
	if env.DomainOfCore(0) != 0 || env.DomainOfCore(7) != 0 {
		t.Error("cores 0-7 should be domain 0")
	}
	if env.DomainOfCore(8) != 1 || env.DomainOfCore(15) != 1 {
		t.Error("cores 8-15 should be domain 1")
	}
	env1 := newEnv(1)
	if env1.DomainOfCore(0) != 0 {
		t.Error("single core should be domain 0")
	}
}

func TestStatsCounters(t *testing.T) {
	env := newEnv(1)
	m := NewLinux(env, false)
	buf := allocBuf(t, env, 1000)
	inProc(t, env, func(p *sim.Proc) {
		addr, _ := m.Map(p, buf, ToDevice)
		m.Unmap(p, addr, buf.Size, ToDevice)
	})
	s := m.Stats()
	if s.Maps != 1 || s.Unmaps != 1 || s.BytesMapped != 1000 {
		t.Errorf("stats: %+v", s)
	}
}

// TestNewIdentityAllocs: an identity mapper's setup allocates one
// spinlock per shard and almost nothing else. The shard names are built
// once per process, and a lock's "spin:" span name only on its first
// observed Lock; per-mapper names cost two more allocations per shard.
func TestNewIdentityAllocs(t *testing.T) {
	env := newEnv(2)
	for _, mode := range []identityMode{identityStrict, identityDeferred, identitySelfInval} {
		n := testing.AllocsPerRun(10, func() { newIdentity(env, mode, 100) })
		if n > identityShards+8 {
			t.Errorf("mode %d: newIdentity makes %v allocations, want at most %d", mode, n, identityShards+8)
		}
	}
}
