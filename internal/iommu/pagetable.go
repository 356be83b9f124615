package iommu

import "repro/internal/mem"

// Domain is a per-device protection domain: a 4-level radix page table
// translating 48-bit IOVAs to physical frames, as in Intel VT-d
// second-level translation. The table is a mem.PageMap, whose last-leaf
// cache turns most datapath walks into one compare (a queue's buffers
// tile a few leaf nodes); the cache changes which pointers are chased,
// never the PTE values observed.
type Domain struct {
	dev         DeviceID
	ptes        mem.PageMap[pte]
	mappedPages uint64
	// wipeDebt counts pages destroyed by a quarantine WipeDomain whose
	// owners have not yet unmapped them; those later unmaps are tolerated
	// (see IOMMU.Unmap) instead of erroring as double-unmaps.
	wipeDebt uint64
}

// pte is a leaf entry; the zero pte is not present.
type pte struct {
	pfn   uint64
	perm  Perm
	valid bool
}

func newDomain(dev DeviceID) *Domain {
	return &Domain{dev: dev}
}

// Dev returns the owning device.
func (d *Domain) Dev() DeviceID { return d.dev }

// MappedPages returns the number of currently mapped IOVA pages.
func (d *Domain) MappedPages() uint64 { return d.mappedPages }

// resetRoot replaces the page table with an empty one (quarantine wipe).
func (d *Domain) resetRoot() {
	d.ptes = mem.PageMap[pte]{}
}

// lookup walks the page table for an IOVA page. A page beyond the 48-bit
// IOVA space is never present.
func (d *Domain) lookup(page uint64) (pte, bool) {
	e := d.ptes.Get(page)
	return e, e.valid
}

// set installs a leaf PTE, allocating interior nodes on demand.
func (d *Domain) set(page uint64, e pte) {
	d.ptes.Set(page, e)
}

// clear removes a leaf PTE, reporting whether it was present. Interior
// nodes are retained (as Linux retains page-table pages until a flush).
func (d *Domain) clear(page uint64) bool {
	if !d.ptes.Get(page).valid {
		return false
	}
	d.ptes.Set(page, pte{})
	return true
}
