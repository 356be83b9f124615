package mem

import "fmt"

// PageMap is a sparse array indexed by page number: a PFN, or the page of
// a 48-bit IOVA. It has the geometry of a VT-d second-level page table —
// four levels of 512-entry nodes covering page numbers below
// PageMapPages — and remembers the last leaf it visited, so clustered
// keys (a slab's pages, a queue's ring buffers, a top-down IOVA range)
// resolve with one compare instead of a hash and a probe.
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
	// leaf; only allocated leaves are cached.
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
)

type (
	pageLeaf[T comparable] [pageMapFanout]T
	pageDir[C any]         [pageMapFanout]*C
)

// Get returns the value stored for page, or the zero T when the page was
// never set, was deleted, or is not below PageMapPages.
func (m *PageMap[T]) Get(page uint64) T {
	if l := m.leafOf(page); l != nil {
		return l[page&pageMapMask]
	}
	var zero T
	return zero
}

// Set stores v for page; the zero T deletes the entry. Deleting from an
// absent leaf allocates nothing. A page not below PageMapPages is a bug in
// the caller, which must range-check untrusted addresses, and panics.
func (m *PageMap[T]) Set(page uint64, v T) {
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
	slot := &l[page&pageMapMask]
	switch {
	case *slot == zero && v != zero:
		m.n++
	case *slot != zero && v == zero:
		m.n--
	}
	*slot = v
}

// Len returns the number of pages holding a non-zero value.
func (m *PageMap[T]) Len() int { return m.n }

// leafOf returns the allocated leaf covering page, or nil.
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
		m.leaf, m.leafKey = l, key
	}
	return l
}

// makeLeaf allocates the path to page's leaf and caches it.
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
	m.leaf, m.leafKey = *l, key
	return *l
}
