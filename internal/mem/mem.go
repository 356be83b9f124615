// Package mem simulates host physical memory: a sparse page store with a
// NUMA-aware page-frame allocator and a slab-style kmalloc that co-locates
// small allocations on shared pages — the property that makes sub-page DMA
// exposure possible (paper §4).
//
// Each frame keeps a mask of its 64-byte lines that may be non-zero. A
// frame with at most four non-zero lines stores only those lines, in a
// 256-byte slot of a per-domain arena: zero bytes written into its clean
// lines are not stored, so an RX buffer holding a two-byte header over
// 1,498 zero bytes costs one line, not a page. A frame whose lines were
// last set by a non-zero Fill over whole lines (a sentinel-filled page)
// is uniform: it stores only the fill byte, and its lines read as 64
// copies of it. Any other write into a uniform frame first stores its
// lines as bytes. A write, Fill or Copy that would give a frame a fifth
// stored non-zero line materializes the 64 KiB chunk of 16 page-aligned
// frames around it, and every frame of that chunk moves its lines into
// its page. A machine's owner calls Release once it has read the memory
// for the last time (after the engine stops and any result collection
// or sentinel audit): Release clears every dirty line and used slot and
// hands the chunks, the arenas' slot blocks included, in one locked
// step, to a process-wide LIFO free list that the next Memory draws
// from before allocating, so back-to-back machines reuse the same
// zeroed storage instead of allocating fresh. The list is capped at 256
// chunks (16 MiB); chunks beyond the cap are left to the garbage
// collector. A released Memory has no domains: every later access fails
// with an error rather than reaching recycled bytes.
package mem

import (
	"bytes"
	"fmt"
	"math/bits"
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
// a chunk only exists once a frame in it needs a page. Pages that are
// allocated, DMA-mapped and freed without a payload byte ever written
// — the majority in the simulated workloads — cost no frame storage and
// no zeroing at all; reads from them are served as zeros. The previous
// map[uint64]*page store allocated a fresh GC-tracked 4 KiB object on
// every AllocPages, which dominated benchmark wall clock.
const (
	chunkShift  = 4 // 16 frames (64 KiB) per chunk
	chunkFrames = 1 << chunkShift
)

// A frame is 64 lines of 64 bytes, one bit each in a uint64 mask. A
// sparse frame's slot holds its non-zero lines in line order, so the
// mask is also the slot's directory: line l sits at position
// OnesCount(lines below l) (slotOff).
const (
	lineShift     = 6
	lineSize      = 1 << lineShift
	slotLines     = 4
	slotSize      = slotLines * lineSize
	slotsPerFrame = PageSize / slotSize
	slotsPerChunk = chunkFrames * slotsPerFrame
)

// chunk is the page data of chunkFrames frames and nothing else: 64 KiB,
// a multiple of the Go runtime's 8 KiB page, so the heap allocates it
// with no rounding and every frame starts on a 4 KiB boundary. That is
// why the line masks live in the domainStore: a mask beside each frame
// would make the chunk 65,664 bytes, which the runtime rounds up to a
// 72 KiB span. A domain's slot arena is carved from chunks too, 256 slots
// to a chunk, so slot storage recycles through the same free list.
type chunk [chunkFrames][PageSize]byte

// maxFreeChunks caps the process-wide chunk free list at 256 chunks
// (16 MiB). At 16 MiB the peak RSS of every benchmark workload stays
// within run-to-run spread; an unbounded list grew it by a fifth.
const maxFreeChunks = 256

// chunkPool is the free list Release fills and getChunk drains. It is
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

// frame is the per-frame state beside the chunks, 16 bytes.
type frame struct {
	// lines marks the 64-byte lines that may be non-zero. While the
	// frame's chunk is not materialized these are exactly the lines its
	// slot stores, or that hold its fill byte; afterwards a clear bit
	// still means an all-zero line, so zeroing a page touches only its
	// set lines.
	lines uint64
	slot  uint32 // the sparse frame's slot, 0 if it stores no line
	// fill is a uniform frame's byte: every line in lines holds 64
	// copies of it. A sparse frame has a slot or a fill byte, never
	// both; a materialized one has neither.
	fill byte
}

type domainStore struct {
	chunks []*chunk
	// frames is indexed like usedBits and covers every chunk's frames
	// (len(frames) == len(chunks)<<chunkShift).
	frames []frame
	// The slot arena. Slots are numbered from 1, so that a frame's slot
	// 0 means none; slot s is 256 bytes of slotBlocks[(s-1)/slotsPerChunk].
	slotBlocks []*chunk
	freeSlots  []uint32 // LIFO
	slots      uint32   // slots handed out so far
	usedBits   []uint64 // allocation bitmap, one bit per frame
	free       []uint64 // recyclable single frames (PFNs), LIFO
	nextPFN    uint64
	inUse      uint64 // allocated frames
}

func (ds *domainStore) isUsed(idx uint64) bool {
	w := idx >> 6
	return w < uint64(len(ds.usedBits)) && ds.usedBits[w]&(1<<(idx&63)) != 0
}

// setUsed marks frames [idx, idx+n) allocated, growing the bitmap once
// and filling whole words.
func (ds *domainStore) setUsed(idx, n uint64) {
	end := idx + n
	if w := (end + 63) >> 6; uint64(len(ds.usedBits)) < w {
		ds.usedBits = append(ds.usedBits, make([]uint64, w-uint64(len(ds.usedBits)))...)
	}
	for idx < end {
		bit := idx & 63
		k := min(64-bit, end-idx)
		ds.usedBits[idx>>6] |= ^uint64(0) >> (64 - k) << bit
		idx += k
	}
}

func (ds *domainStore) clearUsed(idx uint64) {
	ds.usedBits[idx>>6] &^= 1 << (idx & 63)
}

// page returns the page data of the frame at the domain-relative index,
// or nil if its chunk is not materialized (the frame, if allocated,
// reads as zeros but for the lines in its slot).
func (ds *domainStore) page(idx uint64) *[PageSize]byte {
	ci := idx >> chunkShift
	if ci >= uint64(len(ds.chunks)) || ds.chunks[ci] == nil {
		return nil
	}
	return &ds.chunks[ci][idx&(chunkFrames-1)]
}

// grow makes chunks and frames cover frame idx. A chunk past them grows
// them over every frame allocated so far, so a run of first writes to
// fresh allocations grows them once.
func (ds *domainStore) grow(idx uint64) {
	ci := idx >> chunkShift
	if ci >= uint64(len(ds.chunks)) {
		extent := (ds.nextPFN%domainSpan + chunkFrames - 1) >> chunkShift
		n := max(ci+1, extent) - uint64(len(ds.chunks))
		ds.chunks = append(ds.chunks, make([]*chunk, n)...)
		ds.frames = append(ds.frames, make([]frame, n<<chunkShift)...)
	}
}

// lineRange returns the mask of lines first through last.
func lineRange(first, last int) uint64 {
	return ^uint64(0) >> (63 - last) &^ (1<<first - 1)
}

// lineMask returns the lines that bytes [po, po+n) of a page touch; n > 0.
func lineMask(po, n int) uint64 {
	return lineRange(po>>lineShift, (po+n-1)>>lineShift)
}

// wholeLines returns the lines that bytes [po, end) cover completely.
func wholeLines(po, end int) uint64 {
	first, last := (po+lineSize-1)>>lineShift, end>>lineShift-1
	if first > last {
		return 0
	}
	return lineRange(first, last)
}

// at returns the part of line l that lies in [po, end).
func at(l, po, end int) (lo, hi int) {
	return max(l<<lineShift, po), min((l+1)<<lineShift, end)
}

// lowRun returns the lowest run of consecutive lines in r.
func lowRun(r uint64) uint64 {
	return r &^ (r + r&-r)
}

// span returns the part of [po, end) that a run of lines covers.
func span(run uint64, po, end int) (lo, hi int) {
	return max(bits.TrailingZeros64(run)<<lineShift, po), min((64-bits.LeadingZeros64(run))<<lineShift, end)
}

// fillLines sets to v the bytes of lines that dst holds; dst holds page
// bytes [po, po+len(dst)).
func fillLines(dst []byte, lines uint64, po int, v byte) {
	end := po + len(dst)
	for r := lines & lineMask(po, len(dst)); r != 0; {
		run := lowRun(r)
		r &^= run
		lo, hi := span(run, po, end)
		memset(dst[lo-po:hi-po], v)
	}
}

// slotOff returns where page byte b, in a line the slot stores, sits in
// the slot.
func slotOff(lines uint64, b int) int {
	return bits.OnesCount64(lines&(1<<(b>>lineShift)-1))<<lineShift + b&(lineSize-1)
}

var zeroPage [PageSize]byte

// allZero reports whether b, at most a page, holds only zero bytes.
func allZero(b []byte) bool {
	return bytes.Equal(b, zeroPage[:len(b)])
}

// slot returns the bytes of slot s, which must be handed out.
func (ds *domainStore) slot(s uint32) *[slotSize]byte {
	e := (s - 1) % slotsPerChunk
	return (*[slotSize]byte)(ds.slotBlocks[(s-1)/slotsPerChunk][e/slotsPerFrame][e%slotsPerFrame*slotSize:])
}

// setLines makes next the lines sparse frame idx stores: lines it
// already stores keep their bytes, new ones start as zeros, and the
// frame takes or gives back its slot as next becomes non-empty or empty.
// It returns the slot, nil if next is empty.
func (ds *domainStore) setLines(idx, next uint64) *[slotSize]byte {
	f := &ds.frames[idx]
	if next == 0 {
		if f.slot != 0 {
			ds.freeSlots = append(ds.freeSlots, f.slot)
		}
		*f = frame{}
		return nil
	}
	if f.slot == 0 {
		if n := len(ds.freeSlots); n > 0 {
			f.slot = ds.freeSlots[n-1]
			ds.freeSlots = ds.freeSlots[:n-1]
		} else {
			if ds.slots == uint32(len(ds.slotBlocks))*slotsPerChunk {
				ds.slotBlocks = append(ds.slotBlocks, getChunk())
			}
			ds.slots++
			f.slot = ds.slots
		}
	}
	sl := ds.slot(f.slot)
	if old := f.lines; old != next {
		prev := *sl
		k := 0
		for r := next; r != 0; r &= r - 1 {
			l := bits.TrailingZeros64(r)
			if old&(1<<l) != 0 {
				copy(sl[k:k+lineSize], prev[slotOff(old, l<<lineShift):])
			} else {
				clear(sl[k : k+lineSize])
			}
			k += lineSize
		}
		f.lines = next
	}
	return sl
}

// promote materializes frame idx's chunk and moves the stored lines of
// every frame in it into their pages, giving their slots back.
func (ds *domainStore) promote(idx uint64) *[PageSize]byte {
	ci := idx >> chunkShift
	c := getChunk()
	ds.chunks[ci] = c
	for i := range c {
		f := &ds.frames[ci<<chunkShift+uint64(i)]
		if f.fill != 0 {
			fillLines(c[i][:], f.lines, 0, f.fill)
			f.fill = 0
		}
		if f.slot == 0 {
			continue
		}
		sl := ds.slot(f.slot)
		k := 0
		for r := f.lines; r != 0; r &= r - 1 {
			l := bits.TrailingZeros64(r) << lineShift
			copy(c[i][l:l+lineSize], sl[k:])
			k += lineSize
		}
		ds.freeSlots = append(ds.freeSlots, f.slot)
		f.slot = 0
	}
	return &c[idx&(chunkFrames-1)]
}

// unfill stores uniform frame idx's lines as bytes: in a slot when they
// fit, otherwise in its page, promoting its chunk. It returns the page,
// or nil for a slot.
func (ds *domainStore) unfill(idx uint64) *[PageSize]byte {
	f := &ds.frames[idx]
	lines := f.lines
	if bits.OnesCount64(lines) > slotLines {
		return ds.promote(idx)
	}
	v := f.fill
	*f = frame{}
	sl := ds.setLines(idx, lines)
	memset(sl[:bits.OnesCount64(lines)<<lineShift], v)
	return nil
}

// write stores b at offset po of frame idx. A sparse frame stores the
// lines b makes non-zero, drops the lines it fills with zeros, and is
// promoted only when it would need more than slotLines lines; the scan
// stops at the first line too many. A uniform frame is unfilled first.
func (ds *domainStore) write(idx uint64, po int, b []byte) {
	end := po + len(b)
	pg := ds.page(idx)
	if pg == nil {
		ds.grow(idx)
		if ds.frames[idx].fill != 0 {
			pg = ds.unfill(idx)
		}
	}
	if pg != nil {
		copy(pg[po:end], b)
		ds.frames[idx].lines |= lineMask(po, len(b))
		return
	}
	next := ds.frames[idx].lines
	// At the start and after each non-zero line, one scan tests whether
	// the rest of b is zeros (an RX frame's tail). After a zero line the
	// rest is known to hold a non-zero byte, so the next line is tested
	// alone.
	scanRest := true
	for l := po >> lineShift; l<<lineShift < end; l++ {
		lo, hi := at(l, po, end)
		if scanRest && allZero(b[lo-po:]) {
			next &^= wholeLines(lo, end)
			break
		}
		if scanRest = !allZero(b[lo-po : hi-po]); !scanRest {
			if hi-lo == lineSize {
				next &^= 1 << l
			}
			continue
		}
		if next |= 1 << l; bits.OnesCount64(next) > slotLines {
			copy(ds.promote(idx)[po:end], b)
			ds.frames[idx].lines |= lineMask(po, len(b))
			return
		}
	}
	sl := ds.setLines(idx, next)
	for r := next & lineMask(po, len(b)); r != 0; r &= r - 1 {
		l := bits.TrailingZeros64(r)
		lo, hi := at(l, po, end)
		copy(sl[slotOff(next, lo):], b[lo-po:hi-po])
	}
}

// read copies bytes [po, po+len(b)) of frame idx into b.
func (ds *domainStore) read(idx uint64, po int, b []byte) {
	if pg := ds.page(idx); pg != nil {
		copy(b, pg[po:])
		return
	}
	clear(b)
	if idx >= uint64(len(ds.frames)) {
		return
	}
	f := ds.frames[idx]
	if f.fill != 0 {
		fillLines(b, f.lines, po, f.fill)
		return
	}
	end := po + len(b)
	for r := f.lines & lineMask(po, len(b)); r != 0; r &= r - 1 {
		l := bits.TrailingZeros64(r)
		lo, hi := at(l, po, end)
		copy(b[lo-po:hi-po], ds.slot(f.slot)[slotOff(f.lines, lo):])
	}
}

// zeroRange clears bytes [po, po+n) of frame idx, touching only the
// lines that may be non-zero, and forgets the lines it clears whole. A
// uniform frame only forgets them; zeroing part of one of its lines
// unfills it first.
func (ds *domainStore) zeroRange(idx uint64, po, n int) {
	if idx >= uint64(len(ds.frames)) {
		return
	}
	f := &ds.frames[idx]
	end := po + n
	hit := f.lines & lineMask(po, n)
	if hit == 0 {
		return
	}
	whole := wholeLines(po, end)
	pg := ds.page(idx)
	if pg == nil && f.fill != 0 {
		if hit&^whole == 0 {
			if f.lines &^= whole; f.lines == 0 {
				f.fill = 0
			}
			return
		}
		pg = ds.unfill(idx)
	}
	if pg == nil {
		sl := ds.setLines(idx, f.lines&^whole)
		for r := f.lines & hit; r != 0; r &= r - 1 {
			l := bits.TrailingZeros64(r)
			lo, hi := at(l, po, end)
			p := slotOff(f.lines, lo)
			clear(sl[p : p+hi-lo])
		}
		return
	}
	for r := hit; r != 0; {
		run := lowRun(r)
		r &^= run
		lo, hi := span(run, po, end)
		clear(pg[lo:hi])
	}
	f.lines &^= whole
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
	// pages are cached. A write through the cache finds its line mask by
	// cachePFN, an index, since the frames slice can grow.
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

// Release hands the memory's chunks back to the process-wide free list
// (zeroed, up to its cap) and leaves m with no domains, so every later
// Read, Write, Copy, Fill, AllocPages or FreePages fails. Call it once
// the machine's engine has stopped and its memory has been read for the
// last time. Releasing twice is a no-op.
func (m *Memory) Release() {
	n := 0
	for d := range m.doms {
		n += len(m.doms[d].slotBlocks)
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
				for i := ci << chunkShift; i < (ci+1)<<chunkShift; i++ {
					ds.zeroRange(uint64(i), 0, PageSize)
				}
				keep = append(keep, c)
			}
		}
		for b, c := range ds.slotBlocks {
			if len(keep) < cap(keep) {
				used := min(int(ds.slots)-b*slotsPerChunk, slotsPerChunk) * slotSize
				for i := 0; used > 0; i, used = i+1, used-PageSize {
					clear(c[i][:min(used, PageSize)])
				}
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
		// A fresh allocation reads as zeros; only lines actually written
		// since the frame was last zeroed can be stale.
		ds.zeroRange(rel, 0, PageSize)
		ds.setUsed(rel, 1)
	} else {
		base = ds.nextPFN
		if base+uint64(n) > uint64(domain+1)*domainSpan {
			return 0, fmt.Errorf("mem: domain %d exhausted", domain)
		}
		ds.nextPFN += uint64(n)
		ds.setUsed(base-uint64(domain)*domainSpan, uint64(n))
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
				m.doms[first/domainSpan].frames[first%domainSpan].lines |= lineMask(po, len(b))
			} else {
				copy(b, pg[po:po+len(b)])
			}
			return nil
		}
		ds, rel, ok := m.store(first)
		if !ok || !ds.isUsed(rel) {
			return fmt.Errorf("mem: access to unallocated pfn %#x", first)
		}
		if write {
			ds.write(rel, po, b)
		} else {
			ds.read(rel, po, b)
		}
		if pg := ds.page(rel); pg != nil {
			m.cachePFN, m.cachePage = first, pg
		}
		return nil
	}
	// Validate the whole range first so failures have no partial effects.
	for pfn := first; pfn <= last; pfn++ {
		if !m.allocated(pfn) {
			return fmt.Errorf("mem: access to unallocated pfn %#x", pfn)
		}
	}
	for off := 0; off < len(b); {
		a := addr + Phys(off)
		po := a.Offset()
		n := min(PageSize-po, len(b)-off)
		ds, rel, _ := m.store(a.PFN())
		if write {
			ds.write(rel, po, b[off:off+n])
		} else {
			ds.read(rel, po, b[off:off+n])
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
		s, d := src+Phys(off), dst+Phys(off)
		so, do := s.Offset(), d.Offset()
		c := min(PageSize-so, PageSize-do, n-off)
		sds, srel, _ := m.store(s.PFN())
		dds, drel, _ := m.store(d.PFN())
		var f frame
		if srel < uint64(len(sds.frames)) {
			f = sds.frames[srel]
		}
		lines := f.lines & lineMask(so, c)
		switch sp := sds.page(srel); {
		case sp != nil && lines != 0:
			dds.write(drel, do, sp[so:so+c])
		case f.fill != 0:
			// A uniform source: fill the destination run by run, from
			// the lines and byte read above, which writing the
			// destination cannot change.
			dds.zeroRange(drel, do, c)
			for r := lines; r != 0; {
				run := lowRun(r)
				r &^= run
				lo, hi := span(run, so, so+c)
				dds.fill(drel, do+lo-so, hi-lo, f.fill)
			}
		default:
			// The source reads as zeros but for the lines its slot
			// stores. Copy them out first: writing the destination can
			// rearrange or promote the source's frame.
			var sl [slotSize]byte
			if lines != 0 {
				sl = *sds.slot(f.slot)
			}
			dds.zeroRange(drel, do, c)
			for r := lines; r != 0; r &= r - 1 {
				l := bits.TrailingZeros64(r)
				lo, hi := at(l, so, so+c)
				p := slotOff(f.lines, lo)
				dds.write(drel, do+lo-so, sl[p:p+hi-lo])
			}
		}
		off += c
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
		n := min(PageSize-po, b.Size-off)
		ds, rel, _ := m.store(a.PFN())
		ds.fill(rel, po, n, v)
		off += n
	}
	return nil
}

// fill sets bytes [po, po+n) of frame idx to v. A sparse frame takes a
// non-zero fill without storing a byte when it stays uniform: the fill
// covers whole lines of an empty frame or of one uniform with v (or
// lines it already holds), or covers every line the frame stores.
func (ds *domainStore) fill(idx uint64, po, n int, v byte) {
	if v == 0 {
		ds.zeroRange(idx, po, n)
		return
	}
	end := po + n
	pg := ds.page(idx)
	if pg == nil {
		ds.grow(idx)
		f := &ds.frames[idx]
		touched, whole := lineMask(po, n), wholeLines(po, end)
		switch {
		case (f.lines == 0 || f.fill == v) && touched&^whole&^f.lines == 0:
			f.lines |= touched
			f.fill = v
			return
		case touched == whole && f.lines&^whole == 0:
			ds.setLines(idx, 0)
			*f = frame{lines: whole, fill: v}
			return
		case f.fill != 0:
			pg = ds.unfill(idx)
		}
		if pg == nil {
			if bits.OnesCount64(f.lines|touched) <= slotLines {
				var buf [slotSize]byte // n <= slotSize: at most slotLines lines
				memset(buf[:n], v)
				ds.write(idx, po, buf[:n])
				return
			}
			pg = ds.promote(idx)
		}
	}
	memset(pg[po:end], v)
	ds.frames[idx].lines |= lineMask(po, n)
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
