package dmaapi

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/iommu"
	"repro/internal/iova"
	"repro/internal/mem"
	"repro/internal/sim"
)

// LinuxMapper models the stock Linux intel-iommu DMA API: IOVAs come from a
// globally locked allocator tree, mappings are created per dma_map and
// destroyed per dma_unmap, and the IOTLB is invalidated either synchronously
// (strict) or in batches of 250 / every 10 ms (deferred) — paper §2.2.
type LinuxMapper struct {
	env      *Env
	deferred bool

	// SkipInval is a test-only bug switch: when set, strict unmaps skip
	// the synchronous IOTLB invalidation — deliberately reintroducing the
	// deferred-protection vulnerability window into the strict design.
	// The dmafuzz security oracle must catch this (see doc/FUZZING.md);
	// production code never sets it.
	SkipInval bool

	iovaLock *sim.Spinlock
	alloc    *iova.TreeAllocator
	flush    *flushQueue
	dirs     map[iommu.IOVA]Dir // live mappings, for contract checking
	coherent int                // outstanding coherent allocations

	stats Stats
}

// NewLinux creates the Linux-style mapper. deferred selects batched
// (insecure-window) invalidation; otherwise every unmap invalidates
// synchronously.
func NewLinux(env *Env, deferred bool) *LinuxMapper {
	m := &LinuxMapper{
		env:      env,
		deferred: deferred,
		iovaLock: env.NewLock("iova"),
		// Linux reserves the low 4 GiB-ish region; any large window works.
		alloc: iova.NewTree(1, 1<<(iommu.IOVABits-mem.PageShift-1)),
		dirs:  make(map[iommu.IOVA]Dir),
	}
	if deferred {
		m.flush = newFlushQueue(env, &m.stats, 250, 10)
		m.flush.freeCost = env.Costs.IOVAFree
	}
	return m
}

// Map implements Mapper.
func (m *LinuxMapper) Map(p *sim.Proc, buf mem.Buf, dir Dir) (iommu.IOVA, error) {
	if buf.Size <= 0 {
		return 0, fmt.Errorf("linux: map of %d bytes", buf.Size)
	}
	if p.Observed() {
		p.SpanEnter("map")
		defer p.SpanExit()
	}
	pages := PagesOf(uint64(buf.Addr), buf.Size)
	m.iovaLock.Lock(p)
	p.ChargeSpan("iova-alloc", cycles.TagIOVA, m.env.Costs.IOVAAlloc)
	base, err := m.alloc.Alloc(p.Core(), pages)
	m.iovaLock.Unlock(p)
	if err != nil {
		return 0, err
	}
	p.ChargeSpan("ptes", cycles.TagPTMgmt, m.env.Costs.PTMap+m.env.Costs.PTPerPage*uint64(pages-1))
	if err := m.env.IOMMU.Map(m.env.Dev, base, buf.Addr.PageBase(), pages*mem.PageSize, dir.Perm()); err != nil {
		return 0, err
	}
	addr := base + iommu.IOVA(buf.Addr.Offset())
	m.dirs[addr] = dir
	m.stats.Maps++
	m.stats.BytesMapped += uint64(buf.Size)
	return addr, nil
}

// Unmap implements Mapper.
func (m *LinuxMapper) Unmap(p *sim.Proc, addr iommu.IOVA, size int, dir Dir) error {
	got, ok := m.dirs[addr]
	if !ok {
		return fmt.Errorf("linux: unmap of unmapped iova %#x", uint64(addr))
	}
	if got != dir {
		return fmt.Errorf("linux: unmap direction %v does not match map %v", dir, got)
	}
	delete(m.dirs, addr)
	if p.Observed() {
		p.SpanEnter("unmap")
		defer p.SpanExit()
	}
	pages := PagesOf(uint64(addr), size)
	base := addr - iommu.IOVA(addr.Offset())
	p.ChargeSpan("ptes", cycles.TagPTMgmt, m.env.Costs.PTUnmap+m.env.Costs.PTPerPage*uint64(pages-1))
	if err := m.env.IOMMU.Unmap(m.env.Dev, base, pages*mem.PageSize); err != nil {
		return err
	}
	m.stats.Unmaps++
	if m.deferred {
		core := p.Core()
		m.flush.add(p, flushEntry{free: func() {
			_ = m.alloc.Free(core, base, pages)
		}})
		return nil
	}
	// Strict: synchronous page-selective invalidation under the queue
	// lock, busy-waiting for hardware completion (intel-iommu behaviour).
	if !m.SkipInval {
		if p.Observed() {
			p.SpanEnter("inval")
		}
		q := m.env.IOMMU.Queue
		q.Lock.Lock(p)
		done := q.SubmitPages(p, m.env.Dev, base.Page(), uint64(pages))
		q.WaitRecover(p, done)
		q.Lock.Unlock(p)
		if p.Observed() {
			p.SpanExit()
		}
	}
	m.iovaLock.Lock(p)
	p.ChargeSpan("iova-free", cycles.TagIOVA, m.env.Costs.IOVAFree)
	err := m.alloc.Free(p.Core(), base, pages)
	m.iovaLock.Unlock(p)
	return err
}

// MapSG implements Mapper.
func (m *LinuxMapper) MapSG(p *sim.Proc, bufs []mem.Buf, dir Dir) ([]iommu.IOVA, error) {
	return mapSGLoop(m, p, bufs, dir)
}

// UnmapSG implements Mapper.
func (m *LinuxMapper) UnmapSG(p *sim.Proc, addrs []iommu.IOVA, sizes []int, dir Dir) error {
	return unmapSGLoop(m, p, addrs, sizes, dir)
}

// AllocCoherent implements Mapper.
func (m *LinuxMapper) AllocCoherent(p *sim.Proc, size int) (iommu.IOVA, mem.Buf, error) {
	buf, err := allocCoherentPages(m.env, p, size)
	if err != nil {
		return 0, mem.Buf{}, err
	}
	pages := (size + mem.PageSize - 1) / mem.PageSize
	m.iovaLock.Lock(p)
	p.ChargeSpan("iova-alloc", cycles.TagIOVA, m.env.Costs.IOVAAlloc)
	base, err := m.alloc.Alloc(p.Core(), pages)
	m.iovaLock.Unlock(p)
	if err != nil {
		_ = freeCoherentPages(m.env, buf)
		return 0, mem.Buf{}, err
	}
	p.ChargeSpan("ptes", cycles.TagPTMgmt, m.env.Costs.PTMap+m.env.Costs.PTPerPage*uint64(pages-1))
	if err := m.env.IOMMU.Map(m.env.Dev, base, buf.Addr, pages*mem.PageSize, iommu.PermRW); err != nil {
		return 0, mem.Buf{}, err
	}
	m.stats.CoherentAllocs++
	m.coherent++
	return base, buf, nil
}

// FreeCoherent implements Mapper: coherent buffers are always strictly
// invalidated (infrequent, not performance critical — paper §5.2).
func (m *LinuxMapper) FreeCoherent(p *sim.Proc, addr iommu.IOVA, buf mem.Buf) error {
	pages := (buf.Size + mem.PageSize - 1) / mem.PageSize
	p.ChargeSpan("ptes", cycles.TagPTMgmt, m.env.Costs.PTUnmap)
	if err := m.env.IOMMU.Unmap(m.env.Dev, addr, pages*mem.PageSize); err != nil {
		return err
	}
	if p.Observed() {
		p.SpanEnter("inval")
	}
	q := m.env.IOMMU.Queue
	q.Lock.Lock(p)
	done := q.SubmitPages(p, m.env.Dev, addr.Page(), uint64(pages))
	q.WaitRecover(p, done)
	q.Lock.Unlock(p)
	if p.Observed() {
		p.SpanExit()
	}
	m.iovaLock.Lock(p)
	err := m.alloc.Free(p.Core(), addr, pages)
	m.iovaLock.Unlock(p)
	if err != nil {
		return err
	}
	m.coherent--
	return freeCoherentPages(m.env, buf)
}

// Quiesce implements Mapper.
func (m *LinuxMapper) Quiesce(p *sim.Proc) {
	if m.flush != nil {
		m.flush.quiesce(p)
	}
}

// Stats implements Mapper.
func (m *LinuxMapper) Stats() Stats { return m.stats }

// Accounting implements Mapper.
func (m *LinuxMapper) Accounting() Accounting {
	a := Accounting{
		LiveMappings:  len(m.dirs),
		LiveCoherent:  m.coherent,
		IOVAPagesHeld: m.alloc.Outstanding(),
	}
	if m.flush != nil {
		a.DeferredPending = len(m.flush.entries)
	}
	return a
}

// SyncForCPU implements Mapper (cache maintenance only; zero copy).
func (m *LinuxMapper) SyncForCPU(p *sim.Proc, addr iommu.IOVA, size int, dir Dir) error {
	if _, ok := m.dirs[addr]; !ok {
		return fmt.Errorf("linux: sync of unmapped iova %#x", uint64(addr))
	}
	syncMaint(m.env, p)
	return nil
}

// SyncForDevice implements Mapper (cache maintenance only; zero copy).
func (m *LinuxMapper) SyncForDevice(p *sim.Proc, addr iommu.IOVA, size int, dir Dir) error {
	if _, ok := m.dirs[addr]; !ok {
		return fmt.Errorf("linux: sync of unmapped iova %#x", uint64(addr))
	}
	syncMaint(m.env, p)
	return nil
}
