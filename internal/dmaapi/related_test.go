package dmaapi

import (
	"bytes"
	"testing"

	"repro/internal/cycles"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Tests for the related-work strategies (paper §7): SWIOTLB bounce
// buffering and the Basu et al. self-invalidating IOMMU.

func TestSWIOTLBCopySemantics(t *testing.T) {
	env := newEnv(1)
	m := NewSWIOTLB(env)
	buf := allocBuf(t, env, 1500)
	env.Mem.Write(buf.Addr, []byte("outbound"))
	inProc(t, env, func(p *sim.Proc) {
		addr, err := m.Map(p, buf, ToDevice)
		if err != nil {
			t.Fatal(err)
		}
		if addr == iommu.IOVA(buf.Addr) {
			t.Error("device address must be the bounce slot, not the OS buffer")
		}
		got := make([]byte, 8)
		if res := env.IOMMU.DMARead(env.Dev, addr, got); res.Fault != nil {
			t.Fatal(res.Fault)
		}
		if !bytes.Equal(got, []byte("outbound")) {
			t.Error("bounce buffer missing copied data")
		}
		if err := m.Unmap(p, addr, buf.Size, ToDevice); err != nil {
			t.Fatal(err)
		}
		// FromDevice direction: device writes bounce, unmap copies out.
		addr2, err := m.Map(p, buf, FromDevice)
		if err != nil {
			t.Fatal(err)
		}
		if addr2 != addr {
			t.Error("bounce slot should be reused per core")
		}
		env.IOMMU.DMAWrite(env.Dev, addr2, []byte("inbound!"))
		if err := m.Unmap(p, addr2, buf.Size, FromDevice); err != nil {
			t.Fatal(err)
		}
		snap, _ := env.Mem.Snapshot(mem.Buf{Addr: buf.Addr, Size: 8})
		if !bytes.Equal(snap, []byte("inbound!")) {
			t.Error("unmap did not copy device data out of the bounce slot")
		}
	})
	if m.Stats().BytesCopied != 3000 {
		t.Errorf("bytes copied = %d, want 3000", m.Stats().BytesCopied)
	}
}

func TestSWIOTLBProvidesNoProtection(t *testing.T) {
	// The paper: SWIOTLB "makes no use of the hardware IOMMU and thus
	// provides no protection from DMA attacks".
	env := newEnv(1)
	m := NewSWIOTLB(env)
	buf := allocBuf(t, env, 1000)
	inProc(t, env, func(p *sim.Proc) {
		if _, err := m.Map(p, buf, FromDevice); err != nil {
			t.Fatal(err)
		}
		// The device can DMA straight into the OS buffer — or anywhere.
		if res := env.IOMMU.DMAWrite(env.Dev, iommu.IOVA(buf.Addr), []byte("evil")); res.Fault != nil {
			t.Error("swiotlb device should be unconstrained (passthrough)")
		}
	})
}

func TestSWIOTLBErrors(t *testing.T) {
	env := newEnv(1)
	m := NewSWIOTLB(env)
	buf := allocBuf(t, env, 1000)
	inProc(t, env, func(p *sim.Proc) {
		if _, err := m.Map(p, mem.Buf{}, ToDevice); err == nil {
			t.Error("empty map should fail")
		}
		if _, err := m.Map(p, mem.Buf{Addr: buf.Addr, Size: 1 << 20}, ToDevice); err == nil {
			t.Error("oversize map should fail")
		}
		addr, _ := m.Map(p, buf, ToDevice)
		if err := m.Unmap(p, addr, buf.Size, FromDevice); err == nil {
			t.Error("direction mismatch should fail")
		}
		if err := m.Unmap(p, addr+1, buf.Size, ToDevice); err == nil {
			t.Error("unknown address should fail")
		}
		if err := m.Unmap(p, addr, buf.Size, ToDevice); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSelfInvalBoundedWindow(t *testing.T) {
	env := newEnv(1)
	ttl := cycles.FromMicros(20)
	m := NewSelfInval(env, ttl)
	buf := allocBuf(t, env, 1500)
	inProc(t, env, func(p *sim.Proc) {
		addr, err := m.Map(p, buf, FromDevice)
		if err != nil {
			t.Fatal(err)
		}
		// Device uses the mapping (caches the translation).
		if res := env.IOMMU.DMAWrite(env.Dev, addr, []byte("pkt")); res.Fault != nil {
			t.Fatal(res.Fault)
		}
		if err := m.Unmap(p, addr, buf.Size, FromDevice); err != nil {
			t.Fatal(err)
		}
		// Within the TTL, the stale cached entry still works: the window
		// exists but is bounded.
		p.Sleep(cycles.FromMicros(5))
		if res := env.IOMMU.DMAWrite(env.Dev, addr, []byte("early")); res.Fault != nil {
			t.Errorf("write inside TTL window should land: %v", res.Fault)
		}
		// Past the TTL the entry has self-destructed: no software
		// invalidation was ever needed.
		p.Sleep(cycles.FromMicros(30))
		if res := env.IOMMU.DMAWrite(env.Dev, addr, []byte("late")); res.Fault == nil {
			t.Error("write past TTL must fault (hardware self-invalidation)")
		}
	})
	if env.IOMMU.Queue.Submitted != 0 {
		t.Errorf("selfinval must never submit software invalidations, got %d", env.IOMMU.Queue.Submitted)
	}
	if env.IOMMU.TLB().TTLExpiries == 0 {
		t.Error("TTL expiry should be recorded")
	}
}

func TestSelfInvalRemapWithinTTLWorks(t *testing.T) {
	// A fresh mapping of the same page inside the TTL must be usable:
	// the stale entry maps to the same identity translation, so reuse is
	// coherent (and a page-table walk refreshes the entry when needed).
	env := newEnv(1)
	m := NewSelfInval(env, cycles.FromMicros(20))
	buf := allocBuf(t, env, 1500)
	inProc(t, env, func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			addr, err := m.Map(p, buf, FromDevice)
			if err != nil {
				t.Fatal(err)
			}
			if res := env.IOMMU.DMAWrite(env.Dev, addr, []byte("pkt")); res.Fault != nil {
				t.Fatalf("iteration %d: %v", i, res.Fault)
			}
			if err := m.Unmap(p, addr, buf.Size, FromDevice); err != nil {
				t.Fatal(err)
			}
			p.Sleep(cycles.FromMicros(7))
		}
	})
}

func TestSelfInvalCheaperThanStrict(t *testing.T) {
	perOp := func(mk func(*Env) Mapper) uint64 {
		env := newEnv(1)
		m := mk(env)
		buf := allocBuf(t, env, 1500)
		var busy uint64
		inProc(t, env, func(p *sim.Proc) {
			for i := 0; i < 200; i++ {
				addr, err := m.Map(p, buf, FromDevice)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Unmap(p, addr, buf.Size, FromDevice); err != nil {
					t.Fatal(err)
				}
			}
			busy = p.Busy()
		})
		return busy
	}
	strict := perOp(func(e *Env) Mapper { return NewIdentity(e, false) })
	self := perOp(func(e *Env) Mapper { return NewSelfInval(e, 0) })
	if self*2 > strict {
		t.Errorf("selfinval (%d cycles) should be far cheaper than identity+ (%d)", self, strict)
	}
}
