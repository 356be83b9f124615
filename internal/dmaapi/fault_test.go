package dmaapi

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Fault-injection error paths: with page allocations failing mid-flight,
// every mapper must unwind partial state completely — the Accounting()
// counters land back exactly where they started.

// eachMapper runs fn once per IOMMU-backed mapper (noiommu is excluded:
// it has no error paths worth injecting into).
func eachMapper(t *testing.T, fn func(t *testing.T, env *Env, m Mapper)) {
	makers := []struct {
		name string
		mk   func(*Env) Mapper
	}{
		{"strict", func(e *Env) Mapper { return NewLinux(e, false) }},
		{"defer", func(e *Env) Mapper { return NewLinux(e, true) }},
		{"identity+", func(e *Env) Mapper { return NewIdentity(e, false) }},
		{"identity-", func(e *Env) Mapper { return NewIdentity(e, true) }},
		{"swiotlb", func(e *Env) Mapper { return NewSWIOTLB(e) }},
		{"selfinval", func(e *Env) Mapper { return NewSelfInval(e, 0) }},
	}
	for _, mk := range makers {
		t.Run(mk.name, func(t *testing.T) {
			env := newEnv(1)
			fn(t, env, mk.mk(env))
		})
	}
}

func TestCoherentAllocFailureRestoresAccounting(t *testing.T) {
	eachMapper(t, func(t *testing.T, env *Env, m Mapper) {
		inProc(t, env, func(p *sim.Proc) {
			before := m.Accounting()
			env.Mem.AllocFail = func(domain, pages int) bool { return true }
			_, _, err := m.AllocCoherent(p, mem.PageSize)
			env.Mem.AllocFail = nil
			if err == nil {
				t.Fatal("coherent alloc should fail under injected allocation failure")
			}
			if !errors.Is(err, mem.ErrInjectedAllocFail) {
				t.Fatalf("error does not unwrap to the injected failure: %v", err)
			}
			if after := m.Accounting(); after != before {
				t.Fatalf("accounting changed across failed alloc: %+v -> %+v", before, after)
			}
			// The mapper must still work afterwards.
			addr, buf, err := m.AllocCoherent(p, mem.PageSize)
			if err != nil {
				t.Fatalf("alloc after failure: %v", err)
			}
			if err := m.FreeCoherent(p, addr, buf); err != nil {
				t.Fatalf("free after failure: %v", err)
			}
			if !m.Accounting().Zero() {
				t.Fatalf("accounting not zero after free: %+v", m.Accounting())
			}
		})
	})
}

func TestSGMidListFailureUnwindsAccounting(t *testing.T) {
	eachMapper(t, func(t *testing.T, env *Env, m Mapper) {
		good1 := allocBuf(t, env, 1200)
		bad := mem.Buf{Addr: good1.Addr, Size: 0} // invalid: rejected by every mapper
		good2 := allocBuf(t, env, 800)
		inProc(t, env, func(p *sim.Proc) {
			if _, err := m.MapSG(p, []mem.Buf{good1, bad, good2}, ToDevice); err == nil {
				t.Fatal("SG map should fail on the invalid middle element")
			}
			// Deferred mappers legitimately park the unwound element's
			// IOVA in the flush queue; after a quiesce nothing may remain.
			m.Quiesce(p)
			if after := m.Accounting(); !after.Zero() {
				t.Fatalf("mid-list failure leaked state: %+v", after)
			}
			// The same list without the poison element maps and unmaps.
			addrs, err := m.MapSG(p, []mem.Buf{good1, good2}, ToDevice)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.UnmapSG(p, addrs, []int{good1.Size, good2.Size}, ToDevice); err != nil {
				t.Fatal(err)
			}
			m.Quiesce(p)
			if !m.Accounting().Zero() {
				t.Fatalf("accounting not zero after SG round trip: %+v", m.Accounting())
			}
		})
	})
}

func TestDoubleUnmapFailsAndPreservesAccounting(t *testing.T) {
	eachMapper(t, func(t *testing.T, env *Env, m Mapper) {
		buf := allocBuf(t, env, 1500)
		inProc(t, env, func(p *sim.Proc) {
			addr, err := m.Map(p, buf, ToDevice)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Unmap(p, addr, buf.Size, ToDevice); err != nil {
				t.Fatal(err)
			}
			m.Quiesce(p)
			base := m.Accounting()
			if !base.Zero() {
				t.Fatalf("accounting not zero after unmap: %+v", base)
			}
			if err := m.Unmap(p, addr, buf.Size, ToDevice); err == nil {
				t.Fatal("double unmap succeeded")
			}
			if got := m.Accounting(); got != base {
				t.Fatalf("double unmap perturbed accounting: %+v -> %+v", base, got)
			}
		})
	})
}

func TestUnmapOfNeverMappedIOVAFails(t *testing.T) {
	eachMapper(t, func(t *testing.T, env *Env, m Mapper) {
		inProc(t, env, func(p *sim.Proc) {
			before := m.Accounting()
			// An address nothing ever handed out: high in the IOVA space,
			// not a physical address of any allocation.
			bogus := iommu.IOVA(0x7ead_beef_d000)
			err := m.Unmap(p, bogus, mem.PageSize, ToDevice)
			if err == nil {
				t.Fatal("unmap of never-mapped IOVA succeeded")
			}
			if strings.Contains(err.Error(), "panic") {
				t.Fatalf("ungraceful failure: %v", err)
			}
			if got := m.Accounting(); got != before {
				t.Fatalf("failed unmap perturbed accounting: %+v -> %+v", before, got)
			}
		})
	})
}

// linuxFirstIOVA is the IOVA a fresh Linux mapper hands out first: its
// allocator works top-down from the top of the lower half of the space.
const linuxFirstIOVA = iommu.IOVA((1<<(iommu.IOVABits-mem.PageShift-1) - 1) << mem.PageShift)

// TestLinuxMapFailureFreesIOVA pre-maps the IOVA a Linux mapper is about
// to use, so its page-table step fails: the IOVA range (and a coherent
// allocation's pages) must go back, and the mapper must work once the
// collision is gone.
func TestLinuxMapFailureFreesIOVA(t *testing.T) {
	for _, deferred := range []bool{false, true} {
		env := newEnv(1)
		m := NewLinux(env, deferred)
		buf := allocBuf(t, env, 1500)
		squat, err := env.Mem.AllocPages(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.IOMMU.Map(env.Dev, linuxFirstIOVA, squat, mem.PageSize, iommu.PermRW); err != nil {
			t.Fatal(err)
		}
		inProc(t, env, func(p *sim.Proc) {
			before, stats, inUse := m.Accounting(), m.Stats(), env.Mem.InUseBytes(0)
			if _, err := m.Map(p, buf, FromDevice); err == nil {
				t.Fatal("map onto a mapped IOVA succeeded")
			}
			if _, _, err := m.AllocCoherent(p, mem.PageSize); err == nil {
				t.Fatal("coherent alloc onto a mapped IOVA succeeded")
			}
			if got := m.Accounting(); got != before {
				t.Errorf("deferred=%v: accounting %+v -> %+v", deferred, before, got)
			}
			if got := m.Stats(); got.Maps != stats.Maps || got.CoherentAllocs != stats.CoherentAllocs {
				t.Errorf("deferred=%v: stats %+v -> %+v", deferred, stats, got)
			}
			if got := env.Mem.InUseBytes(0); got != inUse {
				t.Errorf("deferred=%v: coherent pages leaked: %d -> %d bytes in use", deferred, inUse, got)
			}
			if err := env.IOMMU.Unmap(env.Dev, linuxFirstIOVA, mem.PageSize); err != nil {
				t.Fatal(err)
			}
			addr, err := m.Map(p, buf, FromDevice)
			if err != nil {
				t.Fatalf("map after the collision is gone: %v", err)
			}
			if err := m.Unmap(p, addr, buf.Size, FromDevice); err != nil {
				t.Fatal(err)
			}
			m.Quiesce(p)
			if !m.Accounting().Zero() {
				t.Errorf("deferred=%v: accounting not zero after round trip: %+v", deferred, m.Accounting())
			}
		})
	}
}

// TestIdentityMapFailureUnwinds pre-maps the second page of a two-page
// buffer, so an identity mapper's Map fails after taking the first page:
// the first page must be unmapped again and closed to the device, and the
// mapper must work once the collision is gone. A coherent allocation that
// fails the same way must return its pages.
func TestIdentityMapFailureUnwinds(t *testing.T) {
	makers := []struct {
		name string
		mk   func(*Env) Mapper
	}{
		{"identity+", func(e *Env) Mapper { return NewIdentity(e, false) }},
		{"identity-", func(e *Env) Mapper { return NewIdentity(e, true) }},
		{"selfinval", func(e *Env) Mapper { return NewSelfInval(e, 0) }},
	}
	for _, mk := range makers {
		t.Run(mk.name, func(t *testing.T) {
			env := newEnv(1)
			m := mk.mk(env)
			base, err := env.Mem.AllocPages(0, 2)
			if err != nil {
				t.Fatal(err)
			}
			buf := mem.Buf{Addr: base, Size: 2 * mem.PageSize}
			second := base + mem.PageSize
			// AllocPages takes fresh multi-page runs in address order, so
			// the coherent buffer below lands right after buf.
			coherentSecond := base + 3*mem.PageSize
			for _, pg := range []mem.Phys{second, coherentSecond} {
				if err := env.IOMMU.Map(env.Dev, iommu.IOVA(pg), pg, mem.PageSize, iommu.PermRW); err != nil {
					t.Fatal(err)
				}
			}
			inProc(t, env, func(p *sim.Proc) {
				before, stats, inUse := m.Accounting(), m.Stats(), env.Mem.InUseBytes(0)
				inval := env.IOMMU.TLB().Invalidations
				if _, err := m.Map(p, buf, ToDevice); err == nil {
					t.Fatal("map over a mapped page succeeded")
				}
				if _, _, err := m.AllocCoherent(p, 2*mem.PageSize); err == nil {
					t.Fatal("coherent alloc over a mapped page succeeded")
				}
				m.Quiesce(p)
				// The device may have cached the first page while the map
				// yielded its locks; only self-invalidation may skip this.
				if mk.name != "selfinval" && env.IOMMU.TLB().Invalidations == inval {
					t.Error("the unwound first page was never invalidated")
				}
				if got := m.Accounting(); got != before {
					t.Errorf("accounting %+v -> %+v", before, got)
				}
				if got := m.Stats(); got.Maps != stats.Maps || got.CoherentAllocs != stats.CoherentAllocs {
					t.Errorf("stats %+v -> %+v", stats, got)
				}
				if got := env.Mem.InUseBytes(0); got != inUse {
					t.Errorf("coherent pages leaked: %d -> %d bytes in use", inUse, got)
				}
				if res := env.IOMMU.DMAWrite(env.Dev, iommu.IOVA(base), []byte("x")); res.Fault == nil {
					t.Error("the first page stayed open to the device after the failed map")
				}
				if err := env.IOMMU.Unmap(env.Dev, iommu.IOVA(second), mem.PageSize); err != nil {
					t.Fatal(err)
				}
				addr, err := m.Map(p, buf, ToDevice)
				if err != nil {
					t.Fatalf("map after the collision is gone: %v", err)
				}
				if err := m.Unmap(p, addr, buf.Size, ToDevice); err != nil {
					t.Fatal(err)
				}
				m.Quiesce(p)
				if !m.Accounting().Zero() {
					t.Errorf("accounting not zero after round trip: %+v", m.Accounting())
				}
			})
		})
	}
}
