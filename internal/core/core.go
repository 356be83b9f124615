// Package core implements the paper's contribution: intra-OS protection via
// DMA shadowing ("copy"). The DMA API is implemented as a layer on top of a
// per-device shadow buffer pool (internal/shadow): dma_map acquires a
// permanently-mapped shadow buffer and copies data into it, dma_unmap
// copies device-written data out and releases the buffer. The device can
// only ever address shadow buffers, so protection is strict (no
// invalidation window — the IOTLB never needs invalidating) and
// byte-granular (OS buffers are never mapped at all).
//
// The two extensions the paper describes are implemented as real code
// paths: optional per-driver copying hints (§5.4) and the huge-buffer
// hybrid that copies only the sub-page head/tail and zero-copy-maps the
// page-aligned middle (§5.5).
package core

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/dmaapi"
	"repro/internal/iommu"
	"repro/internal/iova"
	"repro/internal/mem"
	"repro/internal/shadow"
	"repro/internal/sim"
)

// HintFunc is a driver-registered copying hint (§5.4): given the shadow
// buffer a device wrote and the mapped size, it returns how many bytes are
// worth copying out (e.g. the IP datagram length of a received packet).
// The shadow buffer contents are untrusted — the hint must treat them
// defensively and its result is clamped to the mapped size.
type HintFunc func(m *mem.Memory, shadowBuf mem.Buf, mappedSize int) int

// Option configures a ShadowMapper.
type Option func(*ShadowMapper)

// WithPoolConfig overrides the shadow pool configuration (default: the
// paper prototype's 4 KiB + 64 KiB classes, 16 K buffers per class).
func WithPoolConfig(cfg shadow.Config) Option {
	return func(s *ShadowMapper) { s.poolCfg = &cfg }
}

// WithHint registers a copying hint for receive (FromDevice) unmaps.
func WithHint(h HintFunc) Option {
	return func(s *ShadowMapper) { s.hint = h }
}

// ShadowMapper implements dmaapi.Mapper with DMA shadowing.
type ShadowMapper struct {
	env     *dmaapi.Env
	pool    *shadow.Pool
	poolCfg *shadow.Config
	hint    HintFunc

	// Huge-buffer hybrid state (§5.5). Hybrid maps are infrequent by
	// design — huge buffers imply low DMA rates — so a single lock on
	// the tracking table is fine; IOVAs come from the scalable external
	// allocator, as the paper prescribes.
	hyLock    *sim.Spinlock
	hybrids   map[iommu.IOVA]*hybridMapping
	extAlloc  *iova.MagazineAllocator
	pageCache [][]mem.Phys // per-core cache of head/tail shadow pages

	// Degradation-ladder state (see degrade.go): configuration plus the
	// table of live rung-2 spill mappings.
	degrade DegradeConfig
	spLock  *sim.Spinlock
	spills  map[iommu.IOVA]*spillMapping

	coherent int // outstanding coherent allocations
	stats    dmaapi.Stats
}

type hybridMapping struct {
	base     iommu.IOVA // page-aligned start of the IOVA range
	osBuf    mem.Buf
	dir      dmaapi.Dir
	pages    int
	headLen  int // bytes shadowed at the head (0 if page-aligned start)
	tailLen  int // bytes shadowed at the tail (0 if page-aligned end)
	headPage mem.Phys
	tailPage mem.Phys
}

// NewShadowMapper builds the DMA-shadowing mapper for env's device.
func NewShadowMapper(env *dmaapi.Env, opts ...Option) (*ShadowMapper, error) {
	s := &ShadowMapper{
		env:     env,
		hyLock:  env.NewLock("hybrid"),
		hybrids: make(map[iommu.IOVA]*hybridMapping),
		// Hybrid/coherent IOVAs: high end of the MSB-clear half, far
		// from the pool's fallback region (low end).
		extAlloc:  iova.NewMagazine(env.Cores, 1<<34, 1<<35, 64),
		pageCache: make([][]mem.Phys, env.Cores),
		degrade:   defaultDegrade(),
		spLock:    env.NewLock("spill"),
		spills:    make(map[iommu.IOVA]*spillMapping),
	}
	for _, o := range opts {
		o(s)
	}
	cfg := shadow.DefaultConfig(env.Cores, env.Mem.Domains(), env.DomainOfCore)
	if s.poolCfg != nil {
		cfg = *s.poolCfg
	}
	pool, err := shadow.NewPool(env.Eng, env.Mem, env.IOMMU, env.Costs, env.Dev, cfg)
	if err != nil {
		return nil, err
	}
	s.pool = pool
	return s, nil
}

// Pool exposes the shadow pool (stats, memory-pressure trimming).
func (s *ShadowMapper) Pool() *shadow.Pool { return s.pool }

// copyCost charges the copy of n bytes between buffers on the given NUMA
// domains, including the cache-pollution surcharge for copies that exceed
// the L1 (which lands in "other", as the paper's Fig 5b attributes it).
func (s *ShadowMapper) copyCost(p *sim.Proc, n, fromDom, toDom int) {
	c := s.env.Costs
	if fromDom == toDom {
		p.Charge(cycles.TagMemcpy, c.Memcpy(n))
	} else {
		p.Charge(cycles.TagMemcpy, c.MemcpyRemote(n))
	}
	if poll := c.Pollution(n); poll > 0 {
		p.Charge(cycles.TagOther, poll)
	}
}

// Map implements Mapper. For data the device will read, the OS buffer is
// copied into the shadow buffer now.
func (s *ShadowMapper) Map(p *sim.Proc, buf mem.Buf, dir dmaapi.Dir) (iommu.IOVA, error) {
	if buf.Size <= 0 {
		return 0, fmt.Errorf("copy: map of %d bytes", buf.Size)
	}
	if p.Observed() {
		p.SpanEnter("map")
		defer p.SpanExit()
	}
	if buf.Size > s.pool.MaxClass() {
		return s.mapHybrid(p, buf, dir)
	}
	meta, err := s.pool.Acquire(p, buf, buf.Size, dir.Perm())
	if err != nil {
		if isExhausted(err) && !s.degrade.Disable {
			return s.mapDegraded(p, buf, dir, err)
		}
		return 0, err
	}
	return s.finishPoolMap(p, meta, buf, dir)
}

// finishPoolMap completes a Map whose shadow buffer was acquired: copy-in
// for device-readable data, then stats. Shared by the fast path and the
// ladder's retry rung.
func (s *ShadowMapper) finishPoolMap(p *sim.Proc, meta *shadow.Meta, buf mem.Buf, dir dmaapi.Dir) (iommu.IOVA, error) {
	if dir == dmaapi.ToDevice || dir == dmaapi.Bidirectional {
		if err := s.copyBytes(p, buf.Addr, meta.Shadow().Addr, buf.Size); err != nil {
			s.pool.Release(p, meta)
			return 0, err
		}
	}
	s.stats.Maps++
	s.stats.BytesMapped += uint64(buf.Size)
	return meta.IOVA(), nil
}

// Unmap implements Mapper. For data the device wrote, the shadow buffer is
// copied back to the OS buffer (honouring the copying hint); the shadow
// buffer then returns to its pool. No IOTLB invalidation ever happens.
func (s *ShadowMapper) Unmap(p *sim.Proc, addr iommu.IOVA, size int, dir dmaapi.Dir) error {
	if p.Observed() {
		p.SpanEnter("unmap")
		defer p.SpanExit()
	}
	if !shadow.IsShadow(addr) {
		s.hyLock.Lock(p)
		_, isHybrid := s.hybrids[addr]
		s.hyLock.Unlock(p)
		if isHybrid {
			return s.unmapHybrid(p, addr, size, dir)
		}
		if sp := s.lookupSpill(p, addr); sp != nil {
			return s.unmapSpill(p, addr, size, dir)
		}
	}
	meta, err := s.pool.Find(p, addr)
	if err != nil {
		return err
	}
	if meta.OSBuf().Size == 0 {
		return fmt.Errorf("copy: unmap of unacquired shadow %#x", uint64(addr))
	}
	if meta.Rights() != dir.Perm() {
		return fmt.Errorf("copy: unmap direction %v does not match mapping rights %v", dir, meta.Rights())
	}
	osBuf := meta.OSBuf()
	if size != osBuf.Size {
		return fmt.Errorf("copy: unmap size %d does not match map size %d", size, osBuf.Size)
	}
	if dir == dmaapi.FromDevice || dir == dmaapi.Bidirectional {
		n := size
		if s.hint != nil {
			if h := s.hint(s.env.Mem, meta.Shadow(), size); h >= 0 && h < n {
				s.stats.CopyHintBytesSaved += uint64(n - h)
				n = h
			}
		}
		if n > 0 {
			if err := s.copyBytes(p, meta.Shadow().Addr, osBuf.Addr, n); err != nil {
				return err
			}
		}
	}
	s.pool.Release(p, meta)
	s.stats.Unmaps++
	return nil
}

// MapSG implements Mapper: each scatter/gather element is shadowed in its
// own shadow buffer (paper §5.2).
func (s *ShadowMapper) MapSG(p *sim.Proc, bufs []mem.Buf, dir dmaapi.Dir) ([]iommu.IOVA, error) {
	addrs := make([]iommu.IOVA, 0, len(bufs))
	for _, b := range bufs {
		a, err := s.Map(p, b, dir)
		if err != nil {
			for i, done := range addrs {
				_ = s.Unmap(p, done, bufs[i].Size, dir)
			}
			return nil, err
		}
		addrs = append(addrs, a)
	}
	return addrs, nil
}

// UnmapSG implements Mapper.
func (s *ShadowMapper) UnmapSG(p *sim.Proc, addrs []iommu.IOVA, sizes []int, dir dmaapi.Dir) error {
	if len(addrs) != len(sizes) {
		return fmt.Errorf("copy: SG unmap length mismatch")
	}
	for i, a := range addrs {
		if err := s.Unmap(p, a, sizes[i], dir); err != nil {
			return err
		}
	}
	return nil
}

// Quiesce implements Mapper: DMA shadowing never defers anything.
func (s *ShadowMapper) Quiesce(p *sim.Proc) {}

// Stats implements Mapper.
func (s *ShadowMapper) Stats() dmaapi.Stats {
	st := s.stats
	ps := s.pool.Stats()
	st.ShadowPoolBytes = ps.TotalBytes()
	st.ShadowPoolBuffers = ps.Acquires - ps.Releases
	st.ShadowGrows = ps.Grows
	st.FallbackMaps = ps.FallbackBuffers
	return st
}

// Accounting implements Mapper. The shadow pool itself is a permanent
// cache and excluded; acquired-but-unreleased shadow buffers and live
// hybrid mappings are the strategy's live state. IOVAPagesHeld covers the
// external allocator only (hybrid middles and coherent buffers) — pool
// IOVAs are permanent.
func (s *ShadowMapper) Accounting() dmaapi.Accounting {
	ps := s.pool.Stats()
	return dmaapi.Accounting{
		LiveMappings:  int(ps.Acquires-ps.Releases) + len(s.hybrids) + len(s.spills),
		LiveCoherent:  s.coherent,
		IOVAPagesHeld: s.extAlloc.Outstanding(),
	}
}
