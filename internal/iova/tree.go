// Package iova implements I/O virtual address allocators: a Linux-style
// extent-tree allocator serialized by one lock (the baseline the paper's
// related work [38,42] targets), and a scalable per-core magazine allocator
// in the style of Peleg et al. (USENIX ATC'15), used by the shadow pool's
// fallback path and the huge-buffer hybrid.
package iova

import (
	"fmt"

	"repro/internal/iommu"
	"repro/internal/mem"
)

// Allocator hands out IOVA ranges in whole pages.
type Allocator interface {
	// Alloc returns the IOVA of a fresh range of npages pages. core
	// identifies the calling CPU (used by scalable allocators).
	Alloc(core, npages int) (iommu.IOVA, error)
	// Free returns a range to the allocator.
	Free(core int, addr iommu.IOVA, npages int) error
	// Outstanding returns the number of currently allocated pages.
	Outstanding() uint64
}

// TreeAllocator is an AVL tree of free extents augmented with the maximum
// extent size per subtree, allocating top-down (highest addresses first)
// like Linux's IOVA allocator. It is not internally locked: like the kernel
// allocator it relies on a caller-held spinlock, whose cost the DMA-API
// layer charges.
type TreeAllocator struct {
	root   *extent
	lo, hi uint64 // free page-number range covered, [lo, hi)

	// allocMap records each allocated range's page count under its start
	// page. It is host-side bookkeeping only: it records allocations,
	// never chooses them.
	allocMap mem.PageMap[int]

	// freeExt chains recycled AVL nodes (through left) so steady-state
	// alloc/free churn stops hitting the host heap.
	freeExt *extent

	// Stats
	Allocs, Frees, Failed uint64
	outstanding           uint64
}

type extent struct {
	start, size uint64
	left, right *extent
	height      int
	maxSize     uint64
}

// NewTree creates an allocator managing IOVA pages [loPage, hiPage),
// which must lie in the 48-bit IOVA space.
func NewTree(loPage, hiPage uint64) *TreeAllocator {
	if hiPage <= loPage {
		panic("iova: empty range")
	}
	if hiPage > mem.PageMapPages {
		panic("iova: range beyond the IOVA space")
	}
	t := &TreeAllocator{lo: loPage, hi: hiPage}
	t.root = t.insert(t.root, loPage, hiPage-loPage)
	return t
}

// Outstanding implements Allocator.
func (t *TreeAllocator) Outstanding() uint64 { return t.outstanding }

// Alloc implements Allocator: it carves npages from the highest-addressed
// free extent that fits.
func (t *TreeAllocator) Alloc(_ int, npages int) (iommu.IOVA, error) {
	if npages <= 0 {
		return 0, fmt.Errorf("iova: alloc of %d pages", npages)
	}
	n := uint64(npages)
	e := t.findHighestFit(t.root, n)
	if e == nil {
		t.Failed++
		return 0, fmt.Errorf("iova: out of space for %d pages", npages)
	}
	// Take from the high end of the extent (top-down allocation).
	start := e.start + e.size - n
	if e.size == n {
		t.root = t.remove(t.root, e.start)
	} else {
		e.size -= n
		t.fixupPath(t.root, e.start)
	}
	t.allocMap.Set(start, npages)
	t.Allocs++
	t.outstanding += n
	return iommu.IOVA(start << mem.PageShift), nil
}

// Free implements Allocator, coalescing the released range with adjacent
// free extents.
func (t *TreeAllocator) Free(_ int, addr iommu.IOVA, npages int) error {
	start := addr.Page()
	got := t.allocMap.Get(start)
	if got == 0 {
		return fmt.Errorf("iova: free of unallocated %#x", uint64(addr))
	}
	if got != npages {
		return fmt.Errorf("iova: free size mismatch at %#x: %d vs %d", uint64(addr), npages, got)
	}
	t.allocMap.Set(start, 0)
	n := uint64(npages)
	// Coalesce with predecessor (free extent ending at start) and
	// successor (free extent beginning at start+n).
	if pred := t.findEndingAt(t.root, start); pred != nil {
		start = pred.start
		n += pred.size
		t.root = t.remove(t.root, pred.start)
	}
	if succ := t.findStart(t.root, start+n); succ != nil {
		n += succ.size
		t.root = t.remove(t.root, succ.start)
	}
	t.root = t.insert(t.root, start, n)
	t.Frees++
	t.outstanding -= uint64(npages)
	return nil
}

// FreePages returns the total number of free pages (for tests).
func (t *TreeAllocator) FreePages() uint64 {
	var sum func(e *extent) uint64
	sum = func(e *extent) uint64 {
		if e == nil {
			return 0
		}
		return e.size + sum(e.left) + sum(e.right)
	}
	return sum(t.root)
}

// ---- AVL machinery ----

func h(e *extent) int {
	if e == nil {
		return 0
	}
	return e.height
}

func ms(e *extent) uint64 {
	if e == nil {
		return 0
	}
	return e.maxSize
}

func (e *extent) update() {
	e.height = 1 + max(h(e.left), h(e.right))
	e.maxSize = e.size
	if l := ms(e.left); l > e.maxSize {
		e.maxSize = l
	}
	if r := ms(e.right); r > e.maxSize {
		e.maxSize = r
	}
}

func rotRight(y *extent) *extent {
	x := y.left
	y.left = x.right
	x.right = y
	y.update()
	x.update()
	return x
}

func rotLeft(x *extent) *extent {
	y := x.right
	x.right = y.left
	y.left = x
	x.update()
	y.update()
	return y
}

func balance(e *extent) *extent {
	e.update()
	switch bf := h(e.left) - h(e.right); {
	case bf > 1:
		if h(e.left.left) < h(e.left.right) {
			e.left = rotLeft(e.left)
		}
		return rotRight(e)
	case bf < -1:
		if h(e.right.right) < h(e.right.left) {
			e.right = rotRight(e.right)
		}
		return rotLeft(e)
	}
	return e
}

func (t *TreeAllocator) newExtent(start, size uint64) *extent {
	if e := t.freeExt; e != nil {
		t.freeExt = e.left
		*e = extent{start: start, size: size, height: 1, maxSize: size}
		return e
	}
	return &extent{start: start, size: size, height: 1, maxSize: size}
}

func (t *TreeAllocator) recycle(e *extent) {
	e.left, e.right = t.freeExt, nil
	t.freeExt = e
}

func (t *TreeAllocator) insert(e *extent, start, size uint64) *extent {
	if e == nil {
		return t.newExtent(start, size)
	}
	if start < e.start {
		e.left = t.insert(e.left, start, size)
	} else {
		e.right = t.insert(e.right, start, size)
	}
	return balance(e)
}

func (t *TreeAllocator) remove(e *extent, start uint64) *extent {
	if e == nil {
		return nil
	}
	switch {
	case start < e.start:
		e.left = t.remove(e.left, start)
	case start > e.start:
		e.right = t.remove(e.right, start)
	default:
		if e.left == nil {
			r := e.right
			t.recycle(e)
			return r
		}
		if e.right == nil {
			l := e.left
			t.recycle(e)
			return l
		}
		// Replace with in-order successor.
		s := e.right
		for s.left != nil {
			s = s.left
		}
		e.start, e.size = s.start, s.size
		e.right = t.remove(e.right, s.start)
	}
	return balance(e)
}

// findHighestFit returns the highest-addressed free extent of size >= n.
func (t *TreeAllocator) findHighestFit(e *extent, n uint64) *extent {
	for e != nil {
		if ms(e.right) >= n {
			e = e.right
			continue
		}
		if e.size >= n {
			return e
		}
		e = e.left
		if ms(e) < n {
			return nil
		}
	}
	return nil
}

// fixupPath recomputes augmentation along the path to start after an
// in-place size change.
func (t *TreeAllocator) fixupPath(e *extent, start uint64) {
	if e == nil {
		return
	}
	if start < e.start {
		t.fixupPath(e.left, start)
	} else if start > e.start {
		t.fixupPath(e.right, start)
	}
	e.update()
}

func (t *TreeAllocator) findStart(e *extent, start uint64) *extent {
	for e != nil {
		switch {
		case start < e.start:
			e = e.left
		case start > e.start:
			e = e.right
		default:
			return e
		}
	}
	return nil
}

// findEndingAt returns the free extent whose end equals page, if any.
func (t *TreeAllocator) findEndingAt(e *extent, page uint64) *extent {
	// Predecessor by start, then check its end.
	var best *extent
	for e != nil {
		if e.start < page {
			best = e
			e = e.right
		} else {
			e = e.left
		}
	}
	if best != nil && best.start+best.size == page {
		return best
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
