package iova

import (
	"fmt"
	"sync/atomic"

	"repro/internal/iommu"
)

// MagazineAllocator is a scalable IOVA allocator in the style of Peleg et
// al. (USENIX ATC'15): each core keeps per-size magazines of recently freed
// ranges, so the common alloc/free path never touches the shared backend
// tree (and thus never contends on its lock). It is what the shadow pool's
// fallback path and the huge-buffer hybrid use.
type MagazineAllocator struct {
	backend *TreeAllocator
	cap     int
	// mags[core] holds that core's per-size stacks of cached ranges.
	mags []coreMag

	// Stats. Atomic: inside one engine the coroutine switches between
	// Run and its procs order all accesses, but the bench Farm runs many
	// engines on real OS threads, and a stats reader (obs publishing,
	// sweep-end merges) must be able to observe any allocator without a
	// data race. Plain uint64 increments here were the counters the race
	// detector flagged first (see TestMagazineStatsRace).
	cacheHits, cacheMisses, spills atomic.Uint64
}

// smallMagSizes is the largest npages served by the direct-indexed
// per-core stacks. Nearly every datapath allocation is a handful of pages
// (a 1500-byte buffer is one page; TSO aggregates stay under 64 KiB), so
// the hot path is an array index instead of a map lookup per alloc/free.
const smallMagSizes = 16

// coreMag is one core's magazine set: direct-indexed stacks for small
// range sizes, a lazily created map for anything bigger.
type coreMag struct {
	small [smallMagSizes][]iommu.IOVA // index npages-1
	large map[int][]iommu.IOVA
}

// MagazineStats is a coherent snapshot of the allocator's counters.
type MagazineStats struct {
	CacheHits, CacheMisses, Spills uint64
}

// Stats snapshots the magazine counters (safe from any goroutine).
func (m *MagazineAllocator) Stats() MagazineStats {
	return MagazineStats{
		CacheHits:   m.cacheHits.Load(),
		CacheMisses: m.cacheMisses.Load(),
		Spills:      m.spills.Load(),
	}
}

// NewMagazine creates a magazine allocator over a fresh backend tree
// covering [loPage, hiPage), with per-core-per-size capacity cap.
func NewMagazine(cores int, loPage, hiPage uint64, cap int) *MagazineAllocator {
	if cores < 1 {
		cores = 1
	}
	if cap < 1 {
		cap = 64
	}
	return &MagazineAllocator{
		backend: NewTree(loPage, hiPage),
		cap:     cap,
		mags:    make([]coreMag, cores),
	}
}

// Backend exposes the shared tree (for stats/tests).
func (m *MagazineAllocator) Backend() *TreeAllocator { return m.backend }

// Outstanding implements Allocator. Ranges sitting in magazines count as
// outstanding in the backend but are free from the caller's perspective;
// we report the caller's view.
func (m *MagazineAllocator) Outstanding() uint64 {
	cached := uint64(0)
	for i := range m.mags {
		cm := &m.mags[i]
		for n := range cm.small {
			cached += uint64(n+1) * uint64(len(cm.small[n]))
		}
		for n, stack := range cm.large {
			cached += uint64(n) * uint64(len(stack))
		}
	}
	return m.backend.Outstanding() - cached
}

// Alloc implements Allocator.
func (m *MagazineAllocator) Alloc(core, npages int) (iommu.IOVA, error) {
	if core < 0 || core >= len(m.mags) {
		return 0, fmt.Errorf("iova: bad core %d", core)
	}
	cm := &m.mags[core]
	if npages >= 1 && npages <= smallMagSizes {
		if stack := cm.small[npages-1]; len(stack) > 0 {
			addr := stack[len(stack)-1]
			cm.small[npages-1] = stack[:len(stack)-1]
			m.cacheHits.Add(1)
			return addr, nil
		}
	} else if stack := cm.large[npages]; len(stack) > 0 {
		addr := stack[len(stack)-1]
		cm.large[npages] = stack[:len(stack)-1]
		m.cacheHits.Add(1)
		return addr, nil
	}
	m.cacheMisses.Add(1)
	return m.backend.Alloc(core, npages)
}

// Free implements Allocator: the range goes into the core's magazine; when
// the magazine overflows, half of it spills back to the shared backend.
func (m *MagazineAllocator) Free(core int, addr iommu.IOVA, npages int) error {
	if core < 0 || core >= len(m.mags) {
		return fmt.Errorf("iova: bad core %d", core)
	}
	cm := &m.mags[core]
	var stack []iommu.IOVA
	if npages >= 1 && npages <= smallMagSizes {
		stack = append(cm.small[npages-1], addr)
	} else {
		if cm.large == nil {
			cm.large = make(map[int][]iommu.IOVA)
		}
		stack = append(cm.large[npages], addr)
	}
	if len(stack) > m.cap {
		m.spills.Add(1)
		spill := len(stack) / 2
		for _, a := range stack[:spill] {
			if err := m.backend.Free(core, a, npages); err != nil {
				return err
			}
		}
		stack = append(stack[:0], stack[spill:]...)
	}
	if npages >= 1 && npages <= smallMagSizes {
		cm.small[npages-1] = stack
	} else {
		cm.large[npages] = stack
	}
	return nil
}
