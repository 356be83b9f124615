package dmaapi

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// identityShards is the number of refcount-lock shards. Sharding makes the
// identity designs scale on the map path (their whole point, per Peleg et
// al. ATC'15): only the IOTLB invalidation remains serialized.
const identityShards = 256

// identityMode selects the invalidation discipline of an IdentityMapper.
type identityMode int

const (
	identityStrict identityMode = iota
	identityDeferred
	identitySelfInval
)

// IdentityMapper models the identity-mapping designs of Peleg et al.
// (ATC'15), the strongest published baselines the paper compares against
// (identity+ = strict, identity- = deferred), plus the self-invalidating
// hardware proposal of Basu et al. as a third mode. The IOVA of a buffer
// is its physical address, so no IOVA allocator (and no allocator lock) is
// needed; pages are mapped on first use and unmapped when their refcount
// drops to zero.
//
// Identity mappings are inherently page-granular and (because distinct
// buffers share pages) cannot express per-buffer directions, so pages are
// mapped read-write — the "no sub-page protection" row of Table 1.
type IdentityMapper struct {
	env  *Env
	mode identityMode
	ttl  uint64 // self-invalidation period (identitySelfInval only)

	shards [identityShards]*identityShard
	// flushes holds one flush queue per core: the scalable design batches
	// IOTLB invalidations locally on each core instead of on a global,
	// lock-protected list (paper §2.2.1, citing [42]) — at the price of a
	// larger vulnerability window.
	flushes []*flushQueue

	coherent int // outstanding coherent allocations
	stats    Stats
}

type identityShard struct {
	lock *sim.Spinlock
	refs map[uint64]int // pfn -> mapping refcount
}

// NewIdentity creates identity+ (deferred=false) or identity- (deferred=
// true).
func NewIdentity(env *Env, deferred bool) *IdentityMapper {
	mode := identityStrict
	if deferred {
		mode = identityDeferred
	}
	return newIdentity(env, mode, 0)
}

// NewSelfInval creates the hardware-self-invalidation design of Basu et
// al. (paper §7, "Hardware solutions"): mappings self-destruct ttl cycles
// after the IOTLB caches them, so software NEVER issues invalidations —
// strict-protection cost without the invalidation queue, at the price of a
// small bounded vulnerability window (<= ttl) and hardware that "is not
// currently available".
func NewSelfInval(env *Env, ttl uint64) *IdentityMapper {
	if ttl == 0 {
		ttl = cycles.FromMicros(20)
	}
	env.IOMMU.TLB().SetTTL(ttl)
	return newIdentity(env, identitySelfInval, ttl)
}

func newIdentity(env *Env, mode identityMode, ttl uint64) *IdentityMapper {
	m := &IdentityMapper{env: env, mode: mode, ttl: ttl}
	for i := range m.shards {
		m.shards[i] = &identityShard{
			lock: env.NewLock(fmt.Sprintf("ident-%d", i)),
			refs: make(map[uint64]int),
		}
	}
	if mode == identityDeferred {
		cores := env.Cores
		if cores < 1 {
			cores = 1
		}
		for i := 0; i < cores; i++ {
			m.flushes = append(m.flushes, newFlushQueue(env, &m.stats, 250, 10))
		}
	}
	return m
}

func (m *IdentityMapper) shard(pfn uint64) *identityShard {
	return m.shards[pfn%identityShards]
}

// Map implements Mapper: it bumps each page's refcount, installing the
// identity PTE on the first reference.
func (m *IdentityMapper) Map(p *sim.Proc, buf mem.Buf, dir Dir) (iommu.IOVA, error) {
	if buf.Size <= 0 {
		return 0, fmt.Errorf("identity: map of %d bytes", buf.Size)
	}
	if p.Observed() {
		p.SpanEnter("map")
		defer p.SpanExit()
	}
	pages := PagesOf(uint64(buf.Addr), buf.Size)
	p.ChargeSpan("ptes", cycles.TagPTMgmt, m.env.Costs.PTMap+m.env.Costs.PTPerPage*uint64(pages-1))
	first := buf.Addr.PFN()
	for pg := first; pg < first+uint64(pages); pg++ {
		s := m.shard(pg)
		s.lock.Lock(p)
		s.refs[pg]++
		if s.refs[pg] == 1 {
			base := iommu.IOVA(pg << mem.PageShift)
			if err := m.env.IOMMU.Map(m.env.Dev, base, mem.Phys(base), mem.PageSize, iommu.PermRW); err != nil {
				s.refs[pg]--
				s.lock.Unlock(p)
				return 0, err
			}
		}
		s.lock.Unlock(p)
	}
	m.stats.Maps++
	m.stats.BytesMapped += uint64(buf.Size)
	return iommu.IOVA(buf.Addr), nil
}

// Unmap implements Mapper: refcounts drop, zero-ref pages are unmapped, and
// the buffer's IOVA range is invalidated — synchronously for identity+,
// batched for identity-.
func (m *IdentityMapper) Unmap(p *sim.Proc, addr iommu.IOVA, size int, dir Dir) error {
	if p.Observed() {
		p.SpanEnter("unmap")
		defer p.SpanExit()
	}
	pages := PagesOf(uint64(addr), size)
	p.ChargeSpan("ptes", cycles.TagPTMgmt, m.env.Costs.PTUnmap+m.env.Costs.PTPerPage*uint64(pages-1))
	first := addr.Page()
	for pg := first; pg < first+uint64(pages); pg++ {
		s := m.shard(pg)
		s.lock.Lock(p)
		ref, ok := s.refs[pg]
		if !ok || ref == 0 {
			s.lock.Unlock(p)
			return fmt.Errorf("identity: unmap of unmapped page %#x", pg)
		}
		s.refs[pg]--
		if s.refs[pg] == 0 {
			delete(s.refs, pg)
			base := iommu.IOVA(pg << mem.PageShift)
			if err := m.env.IOMMU.Unmap(m.env.Dev, base, mem.PageSize); err != nil {
				s.lock.Unlock(p)
				return err
			}
		}
		s.lock.Unlock(p)
	}
	m.stats.Unmaps++
	switch m.mode {
	case identityDeferred:
		m.flushes[p.Core()%len(m.flushes)].add(p, flushEntry{})
	case identitySelfInval:
		// Nothing: stale IOTLB entries self-destruct within m.ttl.
	default:
		// Strict: this buffer's authorization ends NOW; invalidate the
		// range under the (contended) invalidation-queue lock and
		// busy-wait.
		if p.Observed() {
			p.SpanEnter("inval")
		}
		q := m.env.IOMMU.Queue
		q.Lock.Lock(p)
		done := q.SubmitPages(p, m.env.Dev, first, uint64(pages))
		q.WaitRecover(p, done)
		q.Lock.Unlock(p)
		if p.Observed() {
			p.SpanExit()
		}
	}
	return nil
}

// MapSG implements Mapper.
func (m *IdentityMapper) MapSG(p *sim.Proc, bufs []mem.Buf, dir Dir) ([]iommu.IOVA, error) {
	return mapSGLoop(m, p, bufs, dir)
}

// UnmapSG implements Mapper.
func (m *IdentityMapper) UnmapSG(p *sim.Proc, addrs []iommu.IOVA, sizes []int, dir Dir) error {
	return unmapSGLoop(m, p, addrs, sizes, dir)
}

// AllocCoherent implements Mapper.
func (m *IdentityMapper) AllocCoherent(p *sim.Proc, size int) (iommu.IOVA, mem.Buf, error) {
	buf, err := allocCoherentPages(m.env, p, size)
	if err != nil {
		return 0, mem.Buf{}, err
	}
	addr, err := m.Map(p, mem.Buf{Addr: buf.Addr, Size: (size + mem.PageSize - 1) / mem.PageSize * mem.PageSize}, Bidirectional)
	if err != nil {
		return 0, mem.Buf{}, err
	}
	m.stats.CoherentAllocs++
	m.stats.Maps-- // counted as coherent, not streaming
	m.coherent++
	return addr, buf, nil
}

// FreeCoherent implements Mapper.
func (m *IdentityMapper) FreeCoherent(p *sim.Proc, addr iommu.IOVA, buf mem.Buf) error {
	rounded := (buf.Size + mem.PageSize - 1) / mem.PageSize * mem.PageSize
	wasMode := m.mode
	m.mode = identityStrict // coherent teardown always invalidates strictly
	err := m.Unmap(p, addr, rounded, Bidirectional)
	m.mode = wasMode
	if err != nil {
		return err
	}
	m.stats.Unmaps--
	m.coherent--
	return freeCoherentPages(m.env, buf)
}

// Quiesce implements Mapper.
func (m *IdentityMapper) Quiesce(p *sim.Proc) {
	for _, f := range m.flushes {
		f.quiesce(p)
	}
}

// Stats implements Mapper.
func (m *IdentityMapper) Stats() Stats { return m.stats }

// Accounting implements Mapper. Identity designs have no IOVA allocator;
// live state is the set of physical pages with a non-zero mapping refcount
// (coherent pages included, so LiveMappings already covers them — but the
// coherent count is reported separately for the oracle's benefit).
func (m *IdentityMapper) Accounting() Accounting {
	a := Accounting{LiveCoherent: m.coherent}
	for _, s := range m.shards {
		a.LiveMappings += len(s.refs)
	}
	for _, f := range m.flushes {
		a.DeferredPending += len(f.entries)
	}
	return a
}

// SyncForCPU implements Mapper (cache maintenance only; zero copy).
func (m *IdentityMapper) SyncForCPU(p *sim.Proc, addr iommu.IOVA, size int, dir Dir) error {
	syncMaint(m.env, p)
	return nil
}

// SyncForDevice implements Mapper (cache maintenance only; zero copy).
func (m *IdentityMapper) SyncForDevice(p *sim.Proc, addr iommu.IOVA, size int, dir Dir) error {
	syncMaint(m.env, p)
	return nil
}
