package dmaapi

import (
	"testing"

	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Error-path coverage: the DMA API must fail cleanly, without leaking
// partial state.

func TestSGMapUnwindsOnMidListFailure(t *testing.T) {
	env := newEnv(1)
	m := NewSWIOTLB(env)
	ok1 := allocBuf(t, env, 1000)
	tooBig := mem.Buf{Addr: ok1.Addr, Size: 1 << 20} // exceeds swiotlb slots
	ok2 := allocBuf(t, env, 1000)
	inProc(t, env, func(p *sim.Proc) {
		if _, err := m.MapSG(p, []mem.Buf{ok1, tooBig, ok2}, ToDevice); err == nil {
			t.Fatal("SG map should fail on the oversize element")
		}
		// The successful first element must have been unwound: its slot
		// is free again and no live mapping remains.
		if m.live.Len() != 0 {
			t.Errorf("SG unwind left %d live mappings", m.live.Len())
		}
		// A fresh map must succeed and reuse the recycled slot.
		addr, err := m.Map(p, ok1, ToDevice)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Unmap(p, addr, ok1.Size, ToDevice); err != nil {
			t.Fatal(err)
		}
	})
}

func TestZeroSizeMapsFailEverywhere(t *testing.T) {
	makers := map[string]func(*Env) Mapper{
		"noiommu":   func(e *Env) Mapper { return NewNoIOMMU(e) },
		"strict":    func(e *Env) Mapper { return NewLinux(e, false) },
		"defer":     func(e *Env) Mapper { return NewLinux(e, true) },
		"identity+": func(e *Env) Mapper { return NewIdentity(e, false) },
		"identity-": func(e *Env) Mapper { return NewIdentity(e, true) },
		"swiotlb":   func(e *Env) Mapper { return NewSWIOTLB(e) },
		"selfinval": func(e *Env) Mapper { return NewSelfInval(e, 0) },
	}
	for name, mk := range makers {
		env := newEnv(1)
		m := mk(env)
		inProc(t, env, func(p *sim.Proc) {
			if _, err := m.Map(p, mem.Buf{}, ToDevice); err == nil {
				t.Errorf("%s: zero-size map should fail", name)
			}
			if _, _, err := m.AllocCoherent(p, 0); err == nil {
				t.Errorf("%s: zero-size coherent alloc should fail", name)
			}
		})
	}
}

func TestIdentityUnmapOfNeverMappedPageFails(t *testing.T) {
	env := newEnv(1)
	m := NewIdentity(env, false)
	inProc(t, env, func(p *sim.Proc) {
		if err := m.Unmap(p, iommu.IOVA(0x123000), 100, FromDevice); err == nil {
			t.Error("unmap of never-mapped page should fail")
		}
	})
}

func TestDeferredTimerRearmsAcrossBatches(t *testing.T) {
	// Regression: after a threshold flush cancels the timer, a later
	// trickle of unmaps must re-arm it (otherwise the window would stay
	// open indefinitely for low-rate devices).
	env := newEnv(1)
	m := NewLinux(env, true)
	bufs := make([]mem.Buf, 251)
	for i := range bufs {
		bufs[i] = allocBuf(t, env, 2048)
	}
	var lateAddr iommu.IOVA
	env.Eng.Spawn("t", 0, 0, func(p *sim.Proc) {
		// 250 unmaps: threshold flush fires and cancels the timer.
		for i := 0; i < 250; i++ {
			a, err := m.Map(p, bufs[i], FromDevice)
			if err != nil {
				t.Error(err)
				return
			}
			if err := m.Unmap(p, a, bufs[i].Size, FromDevice); err != nil {
				t.Error(err)
				return
			}
		}
		// One more unmap: a new timer must cover it.
		a, _ := m.Map(p, bufs[250], FromDevice)
		env.IOMMU.DMAWrite(env.Dev, a, []byte("pkt"))
		_ = m.Unmap(p, a, bufs[250].Size, FromDevice)
		lateAddr = a
	})
	env.Eng.Run(cyclesFromMillis(11))
	env.Eng.Stop()
	if m.Stats().DeferredFlushes < 2 {
		t.Fatalf("flushes = %d, want threshold flush + timer flush", m.Stats().DeferredFlushes)
	}
	if res := env.IOMMU.DMAWrite(env.Dev, lateAddr, []byte("late")); res.Fault == nil {
		t.Error("late unmap's window should be closed by the re-armed timer")
	}
}

func TestSyncOnZeroCopyMappersValidatesAddress(t *testing.T) {
	env := newEnv(1)
	m := NewLinux(env, false)
	buf := allocBuf(t, env, 1000)
	inProc(t, env, func(p *sim.Proc) {
		if err := m.SyncForCPU(p, 0xdead000, 100, FromDevice); err == nil {
			t.Error("sync of unmapped IOVA should fail")
		}
		addr, _ := m.Map(p, buf, FromDevice)
		if err := m.SyncForCPU(p, addr, buf.Size, FromDevice); err != nil {
			t.Errorf("sync of live mapping failed: %v", err)
		}
		if err := m.SyncForDevice(p, addr, buf.Size, FromDevice); err != nil {
			t.Errorf("sync-for-device failed: %v", err)
		}
		m.Unmap(p, addr, buf.Size, FromDevice)
	})
}

// cyclesFromMillis avoids importing cycles in this file's top-level scope
// twice (it is already imported elsewhere in the package tests).
func cyclesFromMillis(ms float64) uint64 { return uint64(ms * 2_400_000) }
