package iommu

// IOTLB is a set-associative cache of IOVA-page translations, tagged by
// device. Entries persist until explicitly invalidated (or evicted), which
// is what makes deferred protection exploitable: a cleared page-table entry
// is still reachable through a stale IOTLB entry until the batched
// invalidation runs.
type IOTLB struct {
	sets int
	ways int
	data [][]iotlbEntry
	tick uint64

	// ttl, when non-zero, makes entries self-invalidate ttl cycles after
	// insertion — the hardware proposal of Basu et al. (self-invalidated
	// mappings, paper §7 "Hardware solutions"), which bounds the
	// deferred-protection window without any software invalidation.
	ttl uint64

	// Stats
	Hits, Misses, Evictions, Invalidations, TTLExpiries uint64
}

type iotlbEntry struct {
	valid      bool
	dev        DeviceID
	iovaPage   uint64
	e          pte
	lastUse    uint64
	insertedAt uint64 // virtual time, for TTL self-invalidation
}

// NewIOTLB creates an IOTLB with the given geometry (sets must be a power
// of two).
func NewIOTLB(sets, ways int) *IOTLB {
	if sets&(sets-1) != 0 || sets <= 0 {
		panic("iommu: IOTLB sets must be a power of two")
	}
	t := &IOTLB{sets: sets, ways: ways, data: make([][]iotlbEntry, sets)}
	for i := range t.data {
		t.data[i] = make([]iotlbEntry, ways)
	}
	return t
}

func (t *IOTLB) set(dev DeviceID, page uint64) []iotlbEntry {
	h := page ^ uint64(dev)*0x9e3779b97f4a7c15
	return t.data[h&uint64(t.sets-1)]
}

// SetTTL enables hardware self-invalidation: entries become invalid ttl
// cycles after insertion. Zero disables.
func (t *IOTLB) SetTTL(ttl uint64) { t.ttl = ttl }

// Lookup finds a cached translation at virtual time now.
func (t *IOTLB) Lookup(dev DeviceID, page uint64, now uint64) (pte, bool) {
	t.tick++
	set := t.set(dev, page)
	for i := range set {
		if set[i].valid && set[i].dev == dev && set[i].iovaPage == page {
			if t.ttl != 0 && now >= set[i].insertedAt+t.ttl {
				set[i].valid = false
				t.TTLExpiries++
				break
			}
			set[i].lastUse = t.tick
			t.Hits++
			return set[i].e, true
		}
	}
	t.Misses++
	return pte{}, false
}

// Insert caches a translation at virtual time now, evicting the LRU way if
// the set is full.
func (t *IOTLB) Insert(dev DeviceID, page uint64, e pte, now uint64) {
	t.tick++
	set := t.set(dev, page)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	if set[victim].valid {
		t.Evictions++
	}
	set[victim] = iotlbEntry{valid: true, dev: dev, iovaPage: page, e: e, lastUse: t.tick, insertedAt: now}
}

// HitRate returns the fraction of lookups served from the cache.
func (t *IOTLB) HitRate() float64 {
	total := t.Hits + t.Misses
	if total == 0 {
		return 0
	}
	return float64(t.Hits) / float64(total)
}

// invalidateMatching drops every cached entry the predicate matches. It is
// the shared full-scan core of the Invalidate* entry points; small ranged
// invalidations take an indexed path instead (see InvalidatePages).
func (t *IOTLB) invalidateMatching(match func(*iotlbEntry) bool) {
	for s := range t.data {
		set := t.data[s]
		for i := range set {
			if set[i].valid && match(&set[i]) {
				set[i].valid = false
			}
		}
	}
}

// InvalidatePages drops cached translations for npages IOVA pages of a
// device starting at page.
func (t *IOTLB) InvalidatePages(dev DeviceID, page, npages uint64) {
	t.Invalidations++
	if npages < uint64(t.sets) {
		// Small invalidation (the common case: strict per-unmap flushes
		// are 1–16 pages): each target page can only live in its own hash
		// set, so probe those sets directly instead of sweeping all
		// sets×ways entries. Above sets pages, the full sweep touches
		// fewer entries than per-page probing would.
		for p := page; p < page+npages; p++ {
			set := t.set(dev, p)
			for i := range set {
				if set[i].valid && set[i].dev == dev && set[i].iovaPage == p {
					set[i].valid = false
				}
			}
		}
		return
	}
	t.invalidateMatching(func(e *iotlbEntry) bool {
		return e.dev == dev && e.iovaPage >= page && e.iovaPage < page+npages
	})
}

// InvalidateDevice drops all cached translations of a device.
func (t *IOTLB) InvalidateDevice(dev DeviceID) {
	t.Invalidations++
	t.invalidateMatching(func(e *iotlbEntry) bool { return e.dev == dev })
}

// InvalidateAll drops every cached translation (global invalidation).
func (t *IOTLB) InvalidateAll() {
	t.Invalidations++
	t.invalidateMatching(func(*iotlbEntry) bool { return true })
}

// Cached reports whether a translation is currently cached (for tests).
func (t *IOTLB) Cached(dev DeviceID, page uint64) bool {
	set := t.set(dev, page)
	for i := range set {
		if set[i].valid && set[i].dev == dev && set[i].iovaPage == page {
			return true
		}
	}
	return false
}
