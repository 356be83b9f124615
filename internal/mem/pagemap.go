package mem

import (
	"fmt"
	"math/bits"
)

// PageMap is a sparse array indexed by page number: a PFN, or the page of
// a 48-bit IOVA. It has the geometry of a VT-d second-level page table —
// four levels of 512-entry nodes covering page numbers below
// PageMapPages — and remembers the last leaf it visited, so clustered
// keys (a slab's pages, a queue's ring buffers, a top-down IOVA range)
// resolve with one compare instead of a hash and a probe.
//
// A leaf starts sparse: it stores only the entries it holds, so a table
// whose keys lie far apart, such as the shadow pool's per-core pages,
// costs a few hundred bytes per leaf instead of 512 entries. A leaf that
// would hold more than 16 entries (pageLeafSparse) becomes a plain
// 512-entry array and stays one.
//
// The zero T means absent: Get returns it for a page never set, and Set of
// the zero T deletes. The zero PageMap is empty and ready to use. Nodes
// are kept once allocated, as a page table keeps its page-table pages.
// Get moves the leaf cache, so even readers must not share a PageMap
// across goroutines.
type PageMap[T comparable] struct {
	root *pageDir[pageDir[pageDir[pageLeaf[T]]]]
	n    int

	// Last-leaf cache. leafKey is page >> pageMapLevelBits, unique per
	// leaf; only allocated leaves are cached. full is leaf.full, so a
	// full leaf's Get and Set are one compare and an index.
	full    *[pageMapFanout]T
	leaf    *pageLeaf[T]
	leafKey uint64
}

const (
	pageMapLevelBits = 9
	pageMapFanout    = 1 << pageMapLevelBits
	pageMapMask      = pageMapFanout - 1

	// PageMapPages bounds the page numbers a PageMap indexes: 2^36, the
	// pages of a 48-bit address space.
	PageMapPages = 1 << (4 * pageMapLevelBits)

	// pageLeafSparse is the most entries a sparse leaf holds; setting one
	// more makes it full. A sparse leaf of 16-byte PTEs is then one
	// 352-byte allocation where a full one is 8 KiB. The shadow pool's
	// leaves hold 8 or 16 entries (its per-core pages sit 64 or 32 pages
	// apart) and the tenant datapath's fewer than 8, while leaves past 16
	// mostly fill to 64 or more, so a larger limit costs bytes in every
	// sparse leaf and saves few promotions.
	pageLeafSparse = 16
)

type pageDir[C any] [pageMapFanout]*C

// pageLeaf is one 512-page leaf. While full is nil the leaf is sparse:
// present marks its pages, and vals[:n] holds their values in page
// order, so a page's value sits at the count of present pages below it.
// Once full is set it holds every value, and present, n and vals are
// unused.
type pageLeaf[T comparable] struct {
	full    *[pageMapFanout]T
	present [pageMapFanout / 64]uint64
	n       int
	vals    [pageLeafSparse]T
}

// Get returns the value stored for page, or the zero T when the page was
// never set, was deleted, or is not below PageMapPages.
func (m *PageMap[T]) Get(page uint64) T {
	if m.full != nil && m.leafKey == page>>pageMapLevelBits {
		return m.full[page&pageMapMask]
	}
	return m.get(page)
}

// get is Get past the cached full leaf.
func (m *PageMap[T]) get(page uint64) T {
	var zero T
	l := m.leafOf(page)
	switch {
	case l == nil:
		return zero
	case l.full != nil:
		return l.full[page&pageMapMask]
	}
	if r, ok := l.rank(page & pageMapMask); ok {
		return l.vals[r]
	}
	return zero
}

// Set stores v for page; the zero T deletes the entry. Deleting from an
// absent leaf allocates nothing. A page not below PageMapPages is a bug in
// the caller, which must range-check untrusted addresses, and panics.
func (m *PageMap[T]) Set(page uint64, v T) {
	if m.full != nil && m.leafKey == page>>pageMapLevelBits {
		m.setSlot(&m.full[page&pageMapMask], v)
		return
	}
	m.set(page, v)
}

// setSlot stores v in a full leaf's slot, keeping Len.
func (m *PageMap[T]) setSlot(slot *T, v T) {
	var zero T
	switch {
	case *slot == zero && v != zero:
		m.n++
	case *slot != zero && v == zero:
		m.n--
	}
	*slot = v
}

// set is Set past the cached full leaf.
func (m *PageMap[T]) set(page uint64, v T) {
	if page >= PageMapPages {
		panic(fmt.Sprintf("mem: PageMap page %#x beyond %#x", page, uint64(PageMapPages)))
	}
	var zero T
	l := m.leafOf(page)
	if l == nil {
		if v == zero {
			return
		}
		l = m.makeLeaf(page)
	}
	i := page & pageMapMask
	if l.full != nil {
		m.setSlot(&l.full[i], v)
		return
	}
	r, ok := l.rank(i)
	bit := uint64(1) << (i & 63)
	switch {
	case ok && v != zero:
		l.vals[r] = v
	case ok: // delete
		copy(l.vals[r:l.n], l.vals[r+1:l.n])
		l.n--
		l.vals[l.n] = zero
		l.present[i>>6] &^= bit
		m.n--
	case v == zero: // deleting an absent page
	case l.n < pageLeafSparse: // insert
		copy(l.vals[r+1:l.n+1], l.vals[r:l.n])
		l.vals[r] = v
		l.n++
		l.present[i>>6] |= bit
		m.n++
	default:
		l.promote()
		l.full[i] = v
		m.full = l.full
		m.n++
	}
}

// rank returns the slot in vals of sparse leaf index i, and whether i is
// present. An absent i's rank is where an insert puts it.
func (l *pageLeaf[T]) rank(i uint64) (int, bool) {
	w := i >> 6
	bit := uint64(1) << (i & 63)
	r := bits.OnesCount64(l.present[w] & (bit - 1))
	for _, word := range l.present[:w] {
		r += bits.OnesCount64(word)
	}
	return r, l.present[w]&bit != 0
}

// promote makes a sparse leaf full, moving each value to its index.
func (l *pageLeaf[T]) promote() {
	full := new([pageMapFanout]T)
	k := 0
	for w, word := range l.present {
		for ; word != 0; word &= word - 1 {
			full[w<<6|bits.TrailingZeros64(word)] = l.vals[k]
			k++
		}
	}
	clear(l.vals[:l.n]) // drop references the leaf no longer uses
	l.full = full
}

// Len returns the number of pages holding a non-zero value.
func (m *PageMap[T]) Len() int { return m.n }

// leafOf returns the allocated leaf covering page, or nil, and caches it.
func (m *PageMap[T]) leafOf(page uint64) *pageLeaf[T] {
	key := page >> pageMapLevelBits
	if m.leaf != nil && m.leafKey == key {
		return m.leaf
	}
	if page >= PageMapPages || m.root == nil {
		return nil
	}
	mid := m.root[page>>(3*pageMapLevelBits)]
	if mid == nil {
		return nil
	}
	low := mid[page>>(2*pageMapLevelBits)&pageMapMask]
	if low == nil {
		return nil
	}
	l := low[key&pageMapMask]
	if l != nil {
		m.cache(l, key)
	}
	return l
}

// cache makes l, the leaf of key, the last-leaf cache.
func (m *PageMap[T]) cache(l *pageLeaf[T], key uint64) {
	m.leaf, m.full, m.leafKey = l, l.full, key
}

// makeLeaf allocates the path to page's leaf, a sparse one, and caches it.
func (m *PageMap[T]) makeLeaf(page uint64) *pageLeaf[T] {
	if m.root == nil {
		m.root = new(pageDir[pageDir[pageDir[pageLeaf[T]]]])
	}
	mid := &m.root[page>>(3*pageMapLevelBits)]
	if *mid == nil {
		*mid = new(pageDir[pageDir[pageLeaf[T]]])
	}
	low := &(*mid)[page>>(2*pageMapLevelBits)&pageMapMask]
	if *low == nil {
		*low = new(pageDir[pageLeaf[T]])
	}
	key := page >> pageMapLevelBits
	l := &(*low)[key&pageMapMask]
	if *l == nil {
		*l = new(pageLeaf[T])
	}
	m.cache(*l, key)
	return *l
}
