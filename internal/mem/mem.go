// Package mem simulates host physical memory: a sparse page store with a
// NUMA-aware page-frame allocator and a slab-style kmalloc that co-locates
// small allocations on shared pages — the property that makes sub-page DMA
// exposure possible (paper §4).
//
// Frame storage is materialized in 64 KiB chunks of 16 page-aligned
// frames on the first write to a page in them; each frame's dirty
// watermark lives beside the chunk, not in it. A machine's owner calls
// Release once it has read the memory for the last time (after the
// engine stops and any result collection or sentinel audit): Release
// clears the bytes each frame ever had written and hands the chunks, in
// one locked step, to a process-wide LIFO free list that the next Memory
// draws from before allocating, so back-to-back machines reuse the same
// zeroed storage instead of allocating fresh. The list is capped at 256
// chunks (16 MiB); chunks beyond the cap are left to the garbage
// collector. A released Memory has no domains: every later access fails
// with an error rather than reaching recycled bytes.
package mem

import (
	"fmt"
	"sync"
)

const (
	// PageSize is the 4 KiB page size used throughout (x86, and the
	// granularity of IOMMU protection in the paper).
	PageSize = 4096
	// PageShift is log2(PageSize).
	PageShift = 12
)

// Phys is a simulated physical address.
type Phys uint64

// PFN returns the page frame number containing the address.
func (p Phys) PFN() uint64 { return uint64(p) >> PageShift }

// Offset returns the offset of the address within its page.
func (p Phys) Offset() int { return int(uint64(p) & (PageSize - 1)) }

// PageBase returns the address of the start of the containing page.
func (p Phys) PageBase() Phys { return Phys(p.PFN() << PageShift) }

// Buf describes a physical buffer (address + length).
type Buf struct {
	Addr Phys
	Size int
}

// End returns the first address past the buffer.
func (b Buf) End() Phys { return b.Addr + Phys(b.Size) }

// domainSpan is the number of page frames reserved per NUMA domain
// (2^22 frames = 16 GiB of address space per domain).
const domainSpan = 1 << 22

// Page frames live in fixed-size chunks materialized on demand, so the
// store is flat (two array indexings per lookup, no hashing), page
// pointers are stable, and the chunks — pure byte arrays — are invisible
// to the garbage collector. Allocation liveness is tracked in a separate
// bitmap, not in the frames: AllocPages/FreePages never touch a chunk, so
// a chunk only exists once a page in it is actually written. Pages that
// are allocated, DMA-mapped and freed without a payload byte ever written
// — the majority in the simulated workloads — cost no frame storage and
// no zeroing at all; reads from them are served as zeros. The previous
// map[uint64]*page store allocated a fresh GC-tracked 4 KiB object on
// every AllocPages, which dominated benchmark wall clock.
const (
	chunkShift  = 4 // 16 frames (64 KiB) per chunk
	chunkFrames = 1 << chunkShift
)

// chunk is the page data of chunkFrames frames and nothing else: 64 KiB,
// a multiple of the Go runtime's 8 KiB page, so the heap allocates it
// with no rounding and every frame starts on a 4 KiB boundary. That is
// why the dirty watermarks live in the domainStore: one beside each frame
// would make the chunk 65,600 bytes, which the runtime rounds up to a
// 72 KiB span.
type chunk [chunkFrames][PageSize]byte

// maxFreeChunks caps the process-wide chunk free list at 256 chunks
// (16 MiB). At 16 MiB the peak RSS of every benchmark workload stays
// within run-to-run spread; an unbounded list grew it by a fifth.
const maxFreeChunks = 256

// chunkPool is the free list Release fills and ensure drains. It is
// explicit rather than a sync.Pool or GC cleanup because only the
// Memory's owner knows when nothing can still reach its frames.
var chunkPool struct {
	sync.Mutex
	free []*chunk // zeroed chunks, LIFO
}

// getChunk returns a zeroed chunk, from the free list when it has one
// (a fresh chunk is allocated, and zeroed, outside the lock).
func getChunk() *chunk {
	chunkPool.Lock()
	n := len(chunkPool.free)
	if n == 0 {
		chunkPool.Unlock()
		return new(chunk)
	}
	c := chunkPool.free[n-1]
	chunkPool.free[n-1] = nil
	chunkPool.free = chunkPool.free[:n-1]
	chunkPool.Unlock()
	return c
}

// freeRoom reports how many more chunks the free list takes.
func freeRoom() int {
	chunkPool.Lock()
	defer chunkPool.Unlock()
	return maxFreeChunks - len(chunkPool.free)
}

// putChunks pushes zeroed chunks onto the free list in one locked step,
// dropping those past the cap (concurrent releases may have filled it
// since freeRoom).
func putChunks(cs []*chunk) {
	chunkPool.Lock()
	defer chunkPool.Unlock()
	n := min(len(cs), maxFreeChunks-len(chunkPool.free))
	chunkPool.free = append(chunkPool.free, cs[:n]...)
}

type domainStore struct {
	chunks []*chunk
	// dirty holds each frame's high-water mark of bytes written since it
	// was last zeroed, indexed like usedBits and covering every chunk
	// slot (len(dirty) == len(chunks)<<chunkShift). Zeroing a frame only
	// needs to clear its first dirty bytes; bytes beyond the watermark
	// are zero by invariant.
	dirty    []int32
	usedBits []uint64 // allocation bitmap, one bit per frame
	free     []uint64 // recyclable single frames (PFNs), LIFO
	nextPFN  uint64
	inUse    uint64 // allocated frames
}

func (ds *domainStore) isUsed(idx uint64) bool {
	w := idx >> 6
	return w < uint64(len(ds.usedBits)) && ds.usedBits[w]&(1<<(idx&63)) != 0
}

func (ds *domainStore) setUsed(idx uint64) {
	w := idx >> 6
	for uint64(len(ds.usedBits)) <= w {
		ds.usedBits = append(ds.usedBits, 0)
	}
	ds.usedBits[w] |= 1 << (idx & 63)
}

func (ds *domainStore) clearUsed(idx uint64) {
	ds.usedBits[idx>>6] &^= 1 << (idx & 63)
}

// page returns the page data of the frame at the domain-relative index,
// or nil if its chunk was never materialized (the page, if allocated,
// reads as zeros).
func (ds *domainStore) page(idx uint64) *[PageSize]byte {
	ci := idx >> chunkShift
	if ci >= uint64(len(ds.chunks)) || ds.chunks[ci] == nil {
		return nil
	}
	return &ds.chunks[ci][idx&(chunkFrames-1)]
}

// ensure returns the page at idx, materializing its chunk if needed. A
// chunk past the slots grows them over every frame allocated so far, so
// a run of first writes to fresh allocations grows them once.
func (ds *domainStore) ensure(idx uint64) *[PageSize]byte {
	ci := idx >> chunkShift
	if ci >= uint64(len(ds.chunks)) {
		extent := (ds.nextPFN%domainSpan + chunkFrames - 1) >> chunkShift
		n := max(ci+1, extent) - uint64(len(ds.chunks))
		ds.chunks = append(ds.chunks, make([]*chunk, n)...)
		ds.dirty = append(ds.dirty, make([]int32, n<<chunkShift)...)
	}
	if ds.chunks[ci] == nil {
		ds.chunks[ci] = getChunk()
	}
	return &ds.chunks[ci][idx&(chunkFrames-1)]
}

// wrote widens frame idx's dirty watermark after a write of [po, po+n).
// The frame's chunk must be materialized.
func (ds *domainStore) wrote(idx uint64, po, n int) {
	if end := int32(po + n); end > ds.dirty[idx] {
		ds.dirty[idx] = end
	}
}

// zero clears what was written to frame idx since it was last zeroed. A
// frame past the watermarks was never written.
func (ds *domainStore) zero(idx uint64) {
	if idx < uint64(len(ds.dirty)) {
		if d := ds.dirty[idx]; d > 0 {
			clear(ds.chunks[idx>>chunkShift][idx&(chunkFrames-1)][:d])
			ds.dirty[idx] = 0
		}
	}
}

// scrub restores chunk ci to all zeros, touching only written bytes. It
// leaves the watermarks alone: they die with the store.
func (ds *domainStore) scrub(ci int) {
	c := ds.chunks[ci]
	for i, d := range ds.dirty[ci<<chunkShift : (ci+1)<<chunkShift] {
		if d > 0 {
			clear(c[i][:d])
		}
	}
}

// Memory is the simulated physical memory of one machine.
type Memory struct {
	domains int
	doms    []domainStore

	// AllocFail, when non-nil, is consulted before every AllocPages call;
	// returning true makes the allocation fail with ErrInjectedAllocFail.
	// It is a fault-injection hook (internal/dmafuzz) for exercising
	// allocation-failure unwind paths; production code never sets it.
	AllocFail func(domain, pages int) bool

	// One-entry translation cache for access(): DMA copies touch the same
	// page repeatedly (a 64 KiB transfer is 16 page-sized accesses, rings
	// poll the same descriptor page), so remembering the last page skips
	// the domain/chunk indexing on the hottest path. Only materialized
	// pages are cached. A write through the cache finds its watermark by
	// cachePFN, an index, since the watermark slice can grow.
	cachePFN  uint64
	cachePage *[PageSize]byte
}

// New creates a machine memory with the given number of NUMA domains.
func New(domains int) *Memory {
	if domains < 1 {
		domains = 1
	}
	m := &Memory{
		domains: domains,
		doms:    make([]domainStore, domains),
	}
	for d := 0; d < domains; d++ {
		// PFN 0 is never allocated so that Phys(0) can mean "nil".
		m.doms[d].nextPFN = uint64(d)*domainSpan + 1
	}
	return m
}

// Release hands the memory's frame chunks back to the process-wide free
// list (zeroed, up to its cap) and leaves m with no domains, so every
// later Read, Write, Copy, Fill, AllocPages or FreePages fails. Call it
// once the machine's engine has stopped and its memory has been read for
// the last time. Releasing twice is a no-op.
func (m *Memory) Release() {
	n := 0
	for d := range m.doms {
		for _, c := range m.doms[d].chunks {
			if c != nil {
				n++
			}
		}
	}
	// Scrub, outside the lock, only the chunks the list has room for; the
	// rest are left to the garbage collector unscrubbed.
	keep := make([]*chunk, 0, min(n, freeRoom()))
	for d := range m.doms {
		ds := &m.doms[d]
		for ci, c := range ds.chunks {
			if c != nil && len(keep) < cap(keep) {
				ds.scrub(ci)
				keep = append(keep, c)
			}
		}
	}
	if len(keep) > 0 {
		putChunks(keep)
	}
	m.domains, m.doms = 0, nil
	m.cachePFN, m.cachePage = 0, nil
}

// Domains returns the number of NUMA domains.
func (m *Memory) Domains() int { return m.domains }

// DomainOf returns the NUMA domain an address belongs to.
func (m *Memory) DomainOf(p Phys) int {
	return int(p.PFN() / domainSpan)
}

// store returns the domain store holding pfn and the domain-relative index.
func (m *Memory) store(pfn uint64) (*domainStore, uint64, bool) {
	d := pfn / domainSpan
	if d >= uint64(m.domains) {
		return nil, 0, false
	}
	return &m.doms[d], pfn % domainSpan, true
}

// allocated reports whether pfn is an allocated page.
func (m *Memory) allocated(pfn uint64) bool {
	ds, rel, ok := m.store(pfn)
	return ok && ds.isUsed(rel)
}

// peek returns the materialized page for pfn, or nil — either because the
// page is unallocated or because it was never written (check allocated()
// to tell the two apart; in the latter case the page reads as zeros).
func (m *Memory) peek(pfn uint64) *[PageSize]byte {
	ds, rel, ok := m.store(pfn)
	if !ok || !ds.isUsed(rel) {
		return nil
	}
	return ds.page(rel)
}

// mut returns the page for pfn for a write of [po, po+n), materializing
// its chunk and widening its dirty watermark over the write. ok is false
// if the page is unallocated.
func (m *Memory) mut(pfn uint64, po, n int) (*[PageSize]byte, bool) {
	ds, rel, ok := m.store(pfn)
	if !ok || !ds.isUsed(rel) {
		return nil, false
	}
	pg := ds.ensure(rel)
	ds.wrote(rel, po, n)
	return pg, true
}

// ErrInjectedAllocFail is the sentinel returned when the AllocFail hook
// vetoes an allocation.
var ErrInjectedAllocFail = fmt.Errorf("mem: injected allocation failure")

// AllocPages allocates n physically contiguous pages on the given NUMA
// domain and returns the base address. Pages are zeroed.
func (m *Memory) AllocPages(domain, n int) (Phys, error) {
	if domain < 0 || domain >= m.domains {
		return 0, fmt.Errorf("mem: bad domain %d", domain)
	}
	if n <= 0 {
		return 0, fmt.Errorf("mem: bad page count %d", n)
	}
	if m.AllocFail != nil && m.AllocFail(domain, n) {
		return 0, ErrInjectedAllocFail
	}
	ds := &m.doms[domain]
	var base uint64
	if n == 1 && len(ds.free) > 0 {
		base = ds.free[len(ds.free)-1]
		ds.free = ds.free[:len(ds.free)-1]
		rel := base - uint64(domain)*domainSpan
		// A fresh allocation reads as zeros; only bytes actually written
		// since the frame was last zeroed can be stale.
		ds.zero(rel)
		ds.setUsed(rel)
	} else {
		base = ds.nextPFN
		if base+uint64(n) > uint64(domain+1)*domainSpan {
			return 0, fmt.Errorf("mem: domain %d exhausted", domain)
		}
		ds.nextPFN += uint64(n)
		rel := base - uint64(domain)*domainSpan
		for i := uint64(0); i < uint64(n); i++ {
			ds.setUsed(rel + i)
		}
	}
	ds.inUse += uint64(n)
	return Phys(base << PageShift), nil
}

// FreePages releases n pages starting at base (which must be page-aligned
// and previously allocated).
func (m *Memory) FreePages(base Phys, n int) error {
	if base.Offset() != 0 {
		return fmt.Errorf("mem: FreePages of unaligned %#x", uint64(base))
	}
	pfn := base.PFN()
	ds, rel, ok := m.store(pfn)
	if !ok {
		return fmt.Errorf("mem: FreePages outside any domain: %#x", uint64(base))
	}
	m.cachePage = nil // the cached page may be in the freed range
	for i := uint64(0); i < uint64(n); i++ {
		if !ds.isUsed(rel + i) {
			return fmt.Errorf("mem: double free of pfn %#x", pfn+i)
		}
		ds.clearUsed(rel + i)
		ds.free = append(ds.free, pfn+i)
	}
	ds.inUse -= uint64(n)
	return nil
}

// InUseBytes returns the number of allocated bytes on a domain (zero for
// a domain the memory does not have, including after Release).
func (m *Memory) InUseBytes(domain int) uint64 {
	if domain < 0 || domain >= len(m.doms) {
		return 0
	}
	return m.doms[domain].inUse * PageSize
}

// Read copies memory starting at addr into b. It fails if any touched page
// is unallocated.
func (m *Memory) Read(addr Phys, b []byte) error {
	return m.access(addr, b, false)
}

// Write copies b into memory starting at addr. It fails (without partial
// effects) if any touched page is unallocated.
func (m *Memory) Write(addr Phys, b []byte) error {
	return m.access(addr, b, true)
}

func (m *Memory) access(addr Phys, b []byte, write bool) error {
	if len(b) == 0 {
		// Explicit early return: the last-page computation below would
		// underflow for a zero-length access at address zero.
		return nil
	}
	first := addr.PFN()
	last := (addr + Phys(len(b)) - 1).PFN()
	if first == last {
		// Single-page access: the common case — iommu.dma splits DMA
		// bursts at page boundaries, so every DMA copy lands here.
		po := addr.Offset()
		if pg := m.cachePage; pg != nil && m.cachePFN == first {
			if write {
				copy(pg[po:po+len(b)], b)
				m.doms[first/domainSpan].wrote(first%domainSpan, po, len(b))
			} else {
				copy(b, pg[po:po+len(b)])
			}
			return nil
		}
		ds, rel, ok := m.store(first)
		if !ok || !ds.isUsed(rel) {
			return fmt.Errorf("mem: access to unallocated pfn %#x", first)
		}
		var pg *[PageSize]byte
		if write {
			pg = ds.ensure(rel)
			ds.wrote(rel, po, len(b))
			copy(pg[po:po+len(b)], b)
		} else if pg = ds.page(rel); pg != nil {
			copy(b, pg[po:po+len(b)])
		} else {
			clear(b) // allocated but never written: reads as zeros
			return nil
		}
		m.cachePFN, m.cachePage = first, pg
		return nil
	}
	// Validate the whole range first so failures have no partial effects.
	for pfn := first; pfn <= last; pfn++ {
		if !m.allocated(pfn) {
			return fmt.Errorf("mem: access to unallocated pfn %#x", pfn)
		}
	}
	off := 0
	for off < len(b) {
		a := addr + Phys(off)
		po := a.Offset()
		n := PageSize - po
		if n > len(b)-off {
			n = len(b) - off
		}
		if write {
			pg, _ := m.mut(a.PFN(), po, n)
			copy(pg[po:po+n], b[off:off+n])
		} else if pg := m.peek(a.PFN()); pg != nil {
			copy(b[off:off+n], pg[po:po+n])
		} else {
			clear(b[off : off+n])
		}
		off += n
	}
	return nil
}

// Copy transfers n bytes from src to dst inside simulated memory without
// staging through a host-heap buffer (the shadow-copy hot path). Both
// ranges are validated first, so failures have no partial effects. The
// ranges must not overlap.
func (m *Memory) Copy(dst, src Phys, n int) error {
	if n <= 0 {
		if n == 0 {
			return nil
		}
		return fmt.Errorf("mem: copy of %d bytes", n)
	}
	for pfn := src.PFN(); pfn <= (src + Phys(n) - 1).PFN(); pfn++ {
		if !m.allocated(pfn) {
			return fmt.Errorf("mem: access to unallocated pfn %#x", pfn)
		}
	}
	for pfn := dst.PFN(); pfn <= (dst + Phys(n) - 1).PFN(); pfn++ {
		if !m.allocated(pfn) {
			return fmt.Errorf("mem: access to unallocated pfn %#x", pfn)
		}
	}
	for off := 0; off < n; {
		s := src + Phys(off)
		d := dst + Phys(off)
		chunk := PageSize - s.Offset()
		if c := PageSize - d.Offset(); c < chunk {
			chunk = c
		}
		if c := n - off; c < chunk {
			chunk = c
		}
		do := d.Offset()
		if sp := m.peek(s.PFN()); sp != nil {
			dp, _ := m.mut(d.PFN(), do, chunk)
			copy(dp[do:do+chunk], sp[s.Offset():s.Offset()+chunk])
		} else if dp := m.peek(d.PFN()); dp != nil {
			// Source page was never written: it reads as zeros. Clearing
			// the destination keeps its dirty watermark conservative but
			// correct, and skips materializing anything when the
			// destination was never written either.
			clear(dp[do : do+chunk])
		}
		off += chunk
	}
	return nil
}

// Allocated reports whether the page containing addr is allocated.
func (m *Memory) Allocated(addr Phys) bool {
	return m.allocated(addr.PFN())
}

// Fill writes the byte v over the buffer without staging through a
// host-heap buffer (test/attack convenience, and allocation-free). Like
// Write, it fails without partial effects if any touched page is
// unallocated.
func (m *Memory) Fill(b Buf, v byte) error {
	if b.Size <= 0 {
		if b.Size == 0 {
			return nil
		}
		return fmt.Errorf("mem: fill of %d bytes", b.Size)
	}
	for pfn := b.Addr.PFN(); pfn <= (b.End() - 1).PFN(); pfn++ {
		if !m.allocated(pfn) {
			return fmt.Errorf("mem: access to unallocated pfn %#x", pfn)
		}
	}
	for off := 0; off < b.Size; {
		a := b.Addr + Phys(off)
		po := a.Offset()
		n := PageSize - po
		if n > b.Size-off {
			n = b.Size - off
		}
		if v == 0 {
			// Filling with zeros only needs work where the page was ever
			// written; an unmaterialized page already reads as zeros.
			if pg := m.peek(a.PFN()); pg != nil {
				clear(pg[po : po+n])
			}
		} else {
			pg, _ := m.mut(a.PFN(), po, n)
			memset(pg[po:po+n], v)
		}
		off += n
	}
	return nil
}

// memset fills dst with v (doubling copies; the zero case compiles to a
// memclr-speed loop either way).
func memset(dst []byte, v byte) {
	if len(dst) == 0 {
		return
	}
	dst[0] = v
	for filled := 1; filled < len(dst); filled *= 2 {
		copy(dst[filled:], dst[:filled])
	}
}

// Snapshot reads the buffer's current contents into a fresh slice.
func (m *Memory) Snapshot(b Buf) ([]byte, error) {
	data := make([]byte, b.Size)
	if err := m.Read(b.Addr, data); err != nil {
		return nil, err
	}
	return data, nil
}
