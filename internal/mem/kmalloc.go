package mem

import (
	"fmt"
	"sort"
)

// Kmalloc is a slab-style kernel memory allocator over simulated physical
// memory. Like the Linux slab allocator (Bonwick '94, cited by the paper),
// it satisfies multiple small allocations from the same page — which is
// exactly why DMA-mapping a kmalloc'ed buffer at page granularity exposes
// co-located kernel data to the device (paper §4, "No sub-page protection").
type Kmalloc struct {
	mem     *Memory
	classes []int
	// caches[domain][classIdx]
	caches [][]*slabCache
	// bySlab maps a slab's base PFN to its slab, for Free.
	bySlab PageMap[*slab]

	// Slab headers are carved from chunked arenas: pointers stay stable
	// (chunks are never reallocated) while the per-grow header allocation
	// amortizes to 1/slabChunk. A 1500-byte buffer lands in the 2048
	// class — two objects per page — so many-core RX setup grows
	// thousands of slabs.
	slabArena []slab
	arenaUsed int

	// Stats
	Allocs, Frees uint64
}

const slabChunk = 256

func (k *Kmalloc) newSlab() *slab {
	if k.arenaUsed == len(k.slabArena) {
		k.slabArena = make([]slab, slabChunk)
		k.arenaUsed = 0
	}
	s := &k.slabArena[k.arenaUsed]
	k.arenaUsed++
	return s
}

type slabCache struct {
	objSize int
	partial []*slab // slabs with at least one free object
}

type slab struct {
	cache   *slabCache
	base    Phys
	pages   int
	objSize int
	free    []int // free object indices (LIFO; backed by inline when small)
	inuse   int
	// inline backs free for classes with few objects per page (≥512
	// bytes), avoiding a heap slice per slab.
	inline [8]int
}

// DefaultClasses mirrors common kmalloc size classes.
var DefaultClasses = []int{32, 64, 128, 256, 512, 1024, 2048, 4096}

// NewKmalloc creates a slab allocator over m with the given size classes
// (nil for DefaultClasses). Classes must be sorted, each ≤ PageSize.
func NewKmalloc(m *Memory, classes []int) *Kmalloc {
	if classes == nil {
		classes = DefaultClasses
	}
	if !sort.IntsAreSorted(classes) {
		panic("mem: kmalloc classes must be sorted")
	}
	k := &Kmalloc{
		mem:     m,
		classes: classes,
		caches:  make([][]*slabCache, m.Domains()),
	}
	for d := range k.caches {
		k.caches[d] = make([]*slabCache, len(classes))
		for i, sz := range classes {
			k.caches[d][i] = &slabCache{objSize: sz}
		}
	}
	return k
}

// Alloc allocates size bytes on the given NUMA domain. Allocations larger
// than the biggest class fall back to whole pages.
func (k *Kmalloc) Alloc(domain, size int) (Buf, error) {
	if size <= 0 {
		return Buf{}, fmt.Errorf("mem: kmalloc of %d bytes", size)
	}
	k.Allocs++
	maxClass := k.classes[len(k.classes)-1]
	if size > maxClass {
		pages := (size + PageSize - 1) / PageSize
		addr, err := k.mem.AllocPages(domain, pages)
		if err != nil {
			return Buf{}, err
		}
		return Buf{Addr: addr, Size: size}, nil
	}
	ci := sort.SearchInts(k.classes, size)
	cache := k.caches[domain][ci]
	if len(cache.partial) == 0 {
		if err := k.grow(domain, cache); err != nil {
			return Buf{}, err
		}
	}
	s := cache.partial[len(cache.partial)-1]
	idx := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	s.inuse++
	if len(s.free) == 0 {
		cache.partial = cache.partial[:len(cache.partial)-1]
	}
	return Buf{Addr: s.base + Phys(idx*s.objSize), Size: size}, nil
}

func (k *Kmalloc) grow(domain int, cache *slabCache) error {
	base, err := k.mem.AllocPages(domain, 1)
	if err != nil {
		return err
	}
	n := PageSize / cache.objSize
	s := k.newSlab()
	*s = slab{cache: cache, base: base, pages: 1, objSize: cache.objSize}
	if n <= len(s.inline) {
		s.free = s.inline[:0]
	} else {
		s.free = make([]int, 0, n)
	}
	// Hand out low indices first so consecutive allocations are adjacent
	// (worst case for sub-page exposure, as in a real slab).
	for i := n - 1; i >= 0; i-- {
		s.free = append(s.free, i)
	}
	cache.partial = append(cache.partial, s)
	k.bySlab.Set(base.PFN(), s)
	return nil
}

// Free releases an allocation made by Alloc. size must match the original
// request.
func (k *Kmalloc) Free(b Buf) error {
	k.Frees++
	maxClass := k.classes[len(k.classes)-1]
	if b.Size > maxClass {
		pages := (b.Size + PageSize - 1) / PageSize
		return k.mem.FreePages(b.Addr, pages)
	}
	s := k.bySlab.Get(b.Addr.PFN())
	if s == nil {
		return fmt.Errorf("mem: kfree of unknown address %#x", uint64(b.Addr))
	}
	idx := int(b.Addr-s.base) / s.objSize
	if b.Addr != s.base+Phys(idx*s.objSize) {
		return fmt.Errorf("mem: kfree of misaligned address %#x", uint64(b.Addr))
	}
	for _, f := range s.free {
		if f == idx {
			return fmt.Errorf("mem: double kfree of %#x", uint64(b.Addr))
		}
	}
	if len(s.free) == 0 {
		s.cache.partial = append(s.cache.partial, s)
	}
	s.free = append(s.free, idx)
	s.inuse--
	return nil
}

// SamePage reports whether two buffers share at least one physical page —
// the co-location condition for the sub-page attack.
func SamePage(a, b Buf) bool {
	return a.Addr.PFN() <= (b.End()-1).PFN() && b.Addr.PFN() <= (a.End()-1).PFN()
}
