// Package dmaapi implements the OS DMA mapping API (dma_map/dma_unmap,
// scatter-gather variants, and coherent allocations) over the simulated
// IOMMU, together with the baseline protection strategies the paper
// compares against:
//
//   - noiommu:   passthrough, no protection (the upper performance bound)
//   - strict:    Linux-style strict protection (IOVA tree + per-unmap
//     IOTLB invalidation)
//   - defer:     Linux-style deferred protection (batched invalidations)
//   - identity+: identity mappings with strict invalidation (Peleg et al.)
//   - identity-: identity mappings with deferred invalidation
//
// The paper's own strategy — DMA shadowing ("copy") — lives in
// internal/core and implements the same Mapper interface.
package dmaapi

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// ErrBackpressure is returned by Map when every rung of a mapper's
// pressure-degradation ladder failed (retry, then strict spill): the
// mapping is refused cheaply and the caller should shed load — drop the
// packet, let ring credits run down — and try again later, rather than
// treat the condition as fatal. Matched with errors.Is; see
// doc/RESILIENCE.md for the ladder.
var ErrBackpressure = fmt.Errorf("dmaapi: mapping refused under backpressure")

// Dir is the DMA direction, from the CPU's point of view (as in the Linux
// DMA API).
type Dir uint8

const (
	// ToDevice marks data the device will read (transmit buffers).
	ToDevice Dir = iota + 1
	// FromDevice marks data the device will write (receive buffers).
	FromDevice
	// Bidirectional marks data both sides access.
	Bidirectional
)

// Perm converts the direction into the device permissions it requires.
func (d Dir) Perm() iommu.Perm {
	switch d {
	case ToDevice:
		return iommu.PermRead
	case FromDevice:
		return iommu.PermWrite
	default:
		return iommu.PermRW
	}
}

func (d Dir) String() string {
	switch d {
	case ToDevice:
		return "to-device"
	case FromDevice:
		return "from-device"
	case Bidirectional:
		return "bidirectional"
	}
	return fmt.Sprintf("dir(%d)", uint8(d))
}

// Mapper is the DMA API a driver uses to authorize device DMA. Every
// protection strategy implements it; the driver code is identical across
// strategies — the transparency goal of the paper (§5.1).
type Mapper interface {
	// Map authorizes a DMA to buf and returns the IOVA the device must
	// use. After Map, the CPU must not touch the buffer.
	Map(p *sim.Proc, buf mem.Buf, dir Dir) (iommu.IOVA, error)

	// Unmap revokes the authorization. For FromDevice/Bidirectional
	// mappings the buffer then holds whatever the device wrote. size and
	// dir must match the Map call.
	Unmap(p *sim.Proc, addr iommu.IOVA, size int, dir Dir) error

	// SyncForCPU transfers ownership of a live mapping to the CPU
	// without destroying it (dma_sync_single_for_cpu): afterwards the
	// CPU observes everything the device wrote so far. Copying
	// strategies copy out here; zero-copy strategies only pay cache
	// maintenance.
	SyncForCPU(p *sim.Proc, addr iommu.IOVA, size int, dir Dir) error

	// SyncForDevice transfers ownership back to the device
	// (dma_sync_single_for_device): afterwards the device observes the
	// CPU's updates to the buffer.
	SyncForDevice(p *sim.Proc, addr iommu.IOVA, size int, dir Dir) error

	// MapSG maps a scatter/gather list, returning one IOVA per element.
	MapSG(p *sim.Proc, bufs []mem.Buf, dir Dir) ([]iommu.IOVA, error)

	// UnmapSG unmaps a scatter/gather list.
	UnmapSG(p *sim.Proc, addrs []iommu.IOVA, sizes []int, dir Dir) error

	// AllocCoherent allocates a buffer that CPU and device share for the
	// lifetime of the driver (descriptor rings, mailboxes). Always
	// page-granular, so it never co-locates with other data (paper §5.2).
	AllocCoherent(p *sim.Proc, size int) (iommu.IOVA, mem.Buf, error)

	// FreeCoherent releases a coherent buffer, strictly invalidating.
	FreeCoherent(p *sim.Proc, addr iommu.IOVA, buf mem.Buf) error

	// Quiesce forces any deferred invalidations to complete now (used at
	// teardown and by tests; Linux equivalent: draining the flush queue).
	Quiesce(p *sim.Proc)

	// Stats returns operation counters.
	Stats() Stats

	// Accounting returns a snapshot of the strategy's live resource
	// state. After every mapping and coherent allocation is released and
	// Quiesce has run, all fields must be zero — the invariant the
	// dmafuzz resource oracle enforces (leaked mappings, IOVAs, or
	// deferred entries show up here).
	Accounting() Accounting
}

// Accounting is a point-in-time snapshot of the resources a Mapper holds
// on behalf of its callers. Permanent caches (shadow pools, bounce-slot
// free lists, IOVA magazines) are deliberately excluded: they are owned
// by the strategy, not by any live mapping.
type Accounting struct {
	// LiveMappings counts streaming mappings not yet unmapped (for
	// identity designs: physical pages with a non-zero mapping refcount).
	LiveMappings int
	// LiveCoherent counts coherent allocations not yet freed.
	LiveCoherent int
	// IOVAPagesHeld counts IOVA pages held from dynamic allocators on
	// behalf of live mappings (zero for strategies without an allocator).
	IOVAPagesHeld uint64
	// DeferredPending counts unmaps queued but not yet flushed.
	DeferredPending int
}

// Zero reports whether no resources are held.
func (a Accounting) Zero() bool {
	return a.LiveMappings == 0 && a.LiveCoherent == 0 &&
		a.IOVAPagesHeld == 0 && a.DeferredPending == 0
}

// Stats counts DMA API activity.
type Stats struct {
	Maps, Unmaps       uint64
	BytesMapped        uint64
	CoherentAllocs     uint64
	DeferredFlushes    uint64
	DeferredQueuePeak  int
	FallbackMaps       uint64 // shadow strategy: fallback-path maps
	HybridMaps         uint64 // shadow strategy: huge-buffer hybrid maps
	BytesCopied        uint64 // shadow strategy: memcpy volume
	ShadowPoolBytes    uint64 // shadow strategy: pool footprint
	ShadowPoolBuffers  uint64
	ShadowGrows        uint64
	CopyHintBytesSaved uint64
	// Degradation-ladder counters (copy strategy under pool pressure;
	// zero unless the ladder is enabled and the pool ran dry).
	DegradedRetries   uint64 // rung 1: bounded acquire retries
	DegradedSpills    uint64 // rung 2: strict per-buffer spill maps
	BackpressureFails uint64 // rung 3: maps refused with ErrBackpressure
}

// Env bundles the simulated machine a Mapper operates on.
type Env struct {
	Eng   *sim.Engine
	Mem   *mem.Memory
	IOMMU *iommu.IOMMU
	Costs *cycles.Costs
	Dev   iommu.DeviceID
	Cores int
}

// DomainOfCore maps a core index to its NUMA domain (cores are split
// evenly across domains, as on the paper's dual-socket machine).
func (e *Env) DomainOfCore(core int) int {
	d := e.Mem.Domains()
	if d <= 1 || e.Cores <= 0 {
		return 0
	}
	per := (e.Cores + d - 1) / d
	dom := core / per
	if dom >= d {
		dom = d - 1
	}
	return dom
}

// NewLock builds a spinlock using the environment's contention model.
func (e *Env) NewLock(name string) *sim.Spinlock {
	return sim.NewSpinlock(name, cycles.TagSpinlock, sim.LockCosts{
		Uncontended:      e.Costs.LockUncontended,
		HandoffBase:      e.Costs.LockHandoffBase,
		HandoffPerWaiter: e.Costs.LockHandoffPerWaiter,
	})
}

// PagesOf returns the number of 4 KiB pages spanned by a buffer of the
// given size starting at addr (page-crossing aware).
func PagesOf(addr uint64, size int) int {
	if size <= 0 {
		return 0
	}
	first := addr >> mem.PageShift
	last := (addr + uint64(size) - 1) >> mem.PageShift
	return int(last - first + 1)
}
