package dmaapi

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// SWIOTLB models Linux's software I/O TLB (bounce buffering) mode, which
// the paper's related work discusses (§7, "Copying-based protection"):
// DMA buffers are copied to/from a dedicated bounce-buffer arena, exactly
// like DMA shadowing — but "this mode makes no use of the hardware IOMMU
// and thus provides no protection from DMA attacks". Its goal is
// addressing-limited (e.g. 32-bit) devices, not security.
//
// It is included as a baseline to separate the two ingredients of the
// paper's design: copying (which SWIOTLB shares) and IOMMU-enforced
// containment to permanently mapped shadow buffers (which it lacks).
type SWIOTLB struct {
	env *Env
	// Per-core free lists of bounce slots, segregated by the same two
	// size classes the paper's pool uses. No IOMMU mapping exists; the
	// "IOVA" handed to the device is the bounce buffer's physical
	// address, and the device runs in passthrough.
	free     [][2][]mem.Buf
	live     mem.PageMap[bounce] // by slot PFN; slots are page-aligned
	coherent int                 // outstanding coherent allocations
	stats    Stats
}

type bounce struct {
	slot  mem.Buf // full-class bounce slot
	osBuf mem.Buf
	dir   Dir
	class int
}

var swiotlbClasses = [2]int{4096, 65536}

// bounceAt returns the live bounce whose slot starts at addr.
func (s *SWIOTLB) bounceAt(addr iommu.IOVA) (bounce, bool) {
	if addr.Offset() != 0 {
		return bounce{}, false
	}
	b := s.live.Get(addr.Page())
	return b, b.slot.Size != 0
}

// NewSWIOTLB creates the bounce-buffer mapper and disables translation for
// the device (as on a system without an IOMMU).
func NewSWIOTLB(env *Env) *SWIOTLB {
	env.IOMMU.SetPassthrough(env.Dev, true)
	return &SWIOTLB{
		env:  env,
		free: make([][2][]mem.Buf, env.Cores),
	}
}

func (s *SWIOTLB) classFor(size int) (int, error) {
	for i, c := range swiotlbClasses {
		if size <= c {
			return i, nil
		}
	}
	return 0, fmt.Errorf("swiotlb: buffer of %d bytes exceeds largest slot", size)
}

// Map implements Mapper: take a bounce slot, copy in if the device reads.
func (s *SWIOTLB) Map(p *sim.Proc, buf mem.Buf, dir Dir) (iommu.IOVA, error) {
	if buf.Size <= 0 {
		return 0, fmt.Errorf("swiotlb: map of %d bytes", buf.Size)
	}
	if p.Observed() {
		p.SpanEnter("map")
		defer p.SpanExit()
	}
	class, err := s.classFor(buf.Size)
	if err != nil {
		return 0, err
	}
	core := p.Core()
	p.ChargeSpan("pool-acquire", cycles.TagCopyMgmt, s.env.Costs.ShadowAcquire)
	var slot mem.Buf
	if stack := s.free[core][class]; len(stack) > 0 {
		slot = stack[len(stack)-1]
		s.free[core][class] = stack[:len(stack)-1]
	} else {
		p.ChargeSpan("pool-grow", cycles.TagCopyMgmt, s.env.Costs.ShadowGrow)
		pages := (swiotlbClasses[class] + mem.PageSize - 1) / mem.PageSize
		addr, err := s.env.Mem.AllocPages(s.env.DomainOfCore(core), pages)
		if err != nil {
			return 0, err
		}
		slot = mem.Buf{Addr: addr, Size: swiotlbClasses[class]}
	}
	if dir == ToDevice || dir == Bidirectional {
		if err := s.env.Mem.Copy(slot.Addr, buf.Addr, buf.Size); err != nil {
			return 0, err
		}
		if p.Observed() {
			p.SpanEnter("bounce")
		}
		p.Charge(cycles.TagMemcpy, s.env.Costs.Memcpy(buf.Size))
		if poll := s.env.Costs.Pollution(buf.Size); poll > 0 {
			p.Charge(cycles.TagOther, poll)
		}
		if p.Observed() {
			p.SpanExit()
		}
		s.stats.BytesCopied += uint64(buf.Size)
	}
	addr := iommu.IOVA(slot.Addr)
	s.live.Set(addr.Page(), bounce{slot: slot, osBuf: buf, dir: dir, class: class})
	s.stats.Maps++
	s.stats.BytesMapped += uint64(buf.Size)
	return addr, nil
}

// Unmap implements Mapper: copy out if the device wrote, release the slot.
func (s *SWIOTLB) Unmap(p *sim.Proc, addr iommu.IOVA, size int, dir Dir) error {
	b, ok := s.bounceAt(addr)
	if !ok {
		return fmt.Errorf("swiotlb: unmap of unknown %#x", uint64(addr))
	}
	if b.dir != dir || b.osBuf.Size != size {
		return fmt.Errorf("swiotlb: unmap mismatch")
	}
	s.live.Set(addr.Page(), bounce{})
	if p.Observed() {
		p.SpanEnter("unmap")
		defer p.SpanExit()
	}
	p.ChargeSpan("pool-release", cycles.TagCopyMgmt, s.env.Costs.ShadowFind+s.env.Costs.ShadowRelease)
	if dir == FromDevice || dir == Bidirectional {
		if err := s.env.Mem.Copy(b.osBuf.Addr, b.slot.Addr, size); err != nil {
			return err
		}
		if p.Observed() {
			p.SpanEnter("bounce")
		}
		p.Charge(cycles.TagMemcpy, s.env.Costs.Memcpy(size))
		if poll := s.env.Costs.Pollution(size); poll > 0 {
			p.Charge(cycles.TagOther, poll)
		}
		if p.Observed() {
			p.SpanExit()
		}
		s.stats.BytesCopied += uint64(size)
	}
	s.free[p.Core()][b.class] = append(s.free[p.Core()][b.class], b.slot)
	s.stats.Unmaps++
	return nil
}

// MapSG implements Mapper.
func (s *SWIOTLB) MapSG(p *sim.Proc, bufs []mem.Buf, dir Dir) ([]iommu.IOVA, error) {
	return mapSGLoop(s, p, bufs, dir)
}

// UnmapSG implements Mapper.
func (s *SWIOTLB) UnmapSG(p *sim.Proc, addrs []iommu.IOVA, sizes []int, dir Dir) error {
	return unmapSGLoop(s, p, addrs, sizes, dir)
}

// AllocCoherent implements Mapper.
func (s *SWIOTLB) AllocCoherent(p *sim.Proc, size int) (iommu.IOVA, mem.Buf, error) {
	buf, err := allocCoherentPages(s.env, p, size)
	if err != nil {
		return 0, mem.Buf{}, err
	}
	s.stats.CoherentAllocs++
	s.coherent++
	return iommu.IOVA(buf.Addr), buf, nil
}

// FreeCoherent implements Mapper.
func (s *SWIOTLB) FreeCoherent(p *sim.Proc, addr iommu.IOVA, buf mem.Buf) error {
	s.coherent--
	return freeCoherentPages(s.env, buf)
}

// Quiesce implements Mapper.
func (s *SWIOTLB) Quiesce(p *sim.Proc) {}

// Stats implements Mapper.
func (s *SWIOTLB) Stats() Stats { return s.stats }

// Accounting implements Mapper. Bounce free lists are a permanent cache
// and deliberately excluded; live bounce slots count as mappings.
func (s *SWIOTLB) Accounting() Accounting {
	return Accounting{LiveMappings: s.live.Len(), LiveCoherent: s.coherent}
}

// SyncForCPU implements Mapper: copy the device's writes out of the bounce
// slot while the mapping stays live.
func (s *SWIOTLB) SyncForCPU(p *sim.Proc, addr iommu.IOVA, size int, dir Dir) error {
	b, ok := s.bounceAt(addr)
	if !ok {
		return fmt.Errorf("swiotlb: sync of unknown %#x", uint64(addr))
	}
	if size > b.osBuf.Size {
		return fmt.Errorf("swiotlb: sync size %d exceeds mapping %d", size, b.osBuf.Size)
	}
	if dir == FromDevice || dir == Bidirectional {
		if err := s.env.Mem.Copy(b.osBuf.Addr, b.slot.Addr, size); err != nil {
			return err
		}
		p.ChargeSpan("bounce", cycles.TagMemcpy, s.env.Costs.Memcpy(size))
		s.stats.BytesCopied += uint64(size)
	}
	return nil
}

// SyncForDevice implements Mapper: refresh the bounce slot from the OS
// buffer.
func (s *SWIOTLB) SyncForDevice(p *sim.Proc, addr iommu.IOVA, size int, dir Dir) error {
	b, ok := s.bounceAt(addr)
	if !ok {
		return fmt.Errorf("swiotlb: sync of unknown %#x", uint64(addr))
	}
	if size > b.osBuf.Size {
		return fmt.Errorf("swiotlb: sync size %d exceeds mapping %d", size, b.osBuf.Size)
	}
	if dir == ToDevice || dir == Bidirectional {
		if err := s.env.Mem.Copy(b.slot.Addr, b.osBuf.Addr, size); err != nil {
			return err
		}
		p.ChargeSpan("bounce", cycles.TagMemcpy, s.env.Costs.Memcpy(size))
		s.stats.BytesCopied += uint64(size)
	}
	return nil
}
