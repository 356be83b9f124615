// Package iommu simulates an Intel VT-d style I/O memory management unit:
// per-device protection domains backed by 4-level radix page tables, an
// IOTLB that caches translations, and a cyclic invalidation queue processed
// asynchronously by a simulated hardware engine.
//
// Every DMA a device issues is translated through this package, so the
// security properties the paper discusses — page-granularity protection,
// the deferred-invalidation vulnerability window, shadow-buffer containment
// — are emergent behaviours of the page table + IOTLB state, not scripted
// outcomes.
package iommu

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/mem"
	"repro/internal/sim"
)

// DeviceID identifies a DMA-capable device (BDF in real hardware).
type DeviceID uint16

// IOVA is an I/O virtual address. x86 IOVAs are 48 bits wide (paper §5.3).
type IOVA uint64

// IOVABits is the width of the IOVA space.
const IOVABits = 48

// Page returns the IOVA page number.
func (v IOVA) Page() uint64 { return uint64(v) >> mem.PageShift }

// Offset returns the offset within the IOVA page.
func (v IOVA) Offset() int { return int(uint64(v) & (mem.PageSize - 1)) }

// Perm is a device access permission.
type Perm uint8

// Permission bits. The DMA API's "direction" maps onto these: a buffer the
// device reads (DMA_TO_DEVICE) is mapped PermRead, one it writes
// (DMA_FROM_DEVICE) PermWrite.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermRW = PermRead | PermWrite
)

func (p Perm) String() string {
	switch p {
	case PermRead:
		return "r"
	case PermWrite:
		return "w"
	case PermRW:
		return "rw"
	}
	return fmt.Sprintf("perm(%d)", uint8(p))
}

// Fault records a blocked DMA.
type Fault struct {
	Dev    DeviceID
	Addr   IOVA
	Want   Perm
	Reason string
	At     uint64 // virtual time
}

func (f Fault) Error() string {
	return fmt.Sprintf("iommu fault: dev %d iova %#x want %s at %d: %s",
		f.Dev, uint64(f.Addr), f.Want, f.At, f.Reason)
}

// IOMMU is the simulated unit.
type IOMMU struct {
	eng   *sim.Engine
	mem   *mem.Memory
	costs *cycles.Costs

	// devices holds each device's record; last caches the most recent
	// lookup, since a machine's DMA traffic comes from one or two devices.
	devices map[DeviceID]*device
	lastDev DeviceID
	last    *device
	// blockedDevs counts records with blocked set.
	blockedDevs int

	tlb   *IOTLB
	Queue *InvQueue

	// ring is the fixed-capacity fault recording ring (see faultring.go).
	// A fault storm costs O(DefaultFaultRingCap) memory, never more.
	ring      *FaultRing
	FaultHook func(Fault)

	// WalkSerialize, when true, serializes page-table walks through a
	// single hardware page walker: concurrent misses (including faulting
	// walks from a misbehaving device) queue behind each other, so a fault
	// storm degrades innocent devices' translation latency until the storm
	// source is quarantined. Off by default — the paper's experiments model
	// an uncontended walker — and enabled by chaos/containment scenarios.
	WalkSerialize bool
	walkFreeAt    uint64

	// OnEvent, when set, receives every map, unmap, invalidation, fault
	// and quarantine event (tracepoint-style debugging; see Event).
	OnEvent func(Event)

	msiStats MSIStats

	// Stats
	Translations uint64
	FaultCount   uint64
	// BlockedDMAs counts DMAs rejected at the root because the issuing
	// device was quarantined (these are not faults: no record, no hook).
	BlockedDMAs uint64
}

// device is the IOMMU's state for one device: its protection domain (nil
// until first used), its passthrough and quarantine flags, and its
// interrupt-remapping entries (see msi.go).
type device struct {
	domain      *Domain
	passthrough bool
	blocked     bool
	// msi is the set of granted vectors, one bit per 8-bit vector.
	msi [4]uint64
}

// New creates an IOMMU attached to the machine's memory and engine.
func New(eng *sim.Engine, m *mem.Memory, costs *cycles.Costs) *IOMMU {
	u := &IOMMU{
		eng:     eng,
		mem:     m,
		costs:   costs,
		devices: make(map[DeviceID]*device),
		tlb:     NewIOTLB(64, 4),
		ring:    NewFaultRing(DefaultFaultRingCap),
	}
	u.Queue = newInvQueue(eng, u, costs)
	return u
}

// lookup returns dev's record, or nil when nothing was ever set for it.
func (u *IOMMU) lookup(dev DeviceID) *device {
	if u.last != nil && u.lastDev == dev {
		return u.last
	}
	d := u.devices[dev]
	if d != nil {
		u.lastDev, u.last = dev, d
	}
	return d
}

// record returns dev's record, creating it.
func (u *IOMMU) record(dev DeviceID) *device {
	if d := u.lookup(dev); d != nil {
		return d
	}
	d := &device{}
	u.devices[dev] = d
	u.lastDev, u.last = dev, d
	return d
}

// TLB exposes the IOTLB (for stats and tests).
func (u *IOMMU) TLB() *IOTLB { return u.tlb }

// Faults returns a snapshot of the faults currently held in the recording
// ring, oldest first. Unlike the pre-ring behaviour this is bounded: under
// a fault storm older faults are overwritten (see FaultRing.Overflow) and
// FaultCount keeps the true total.
func (u *IOMMU) Faults() []Fault { return u.ring.Snapshot() }

// SetPassthrough disables translation for a device ("no-iommu" mode: IOVA
// is used directly as a physical address, no protection).
func (u *IOMMU) SetPassthrough(dev DeviceID, on bool) {
	u.record(dev).passthrough = on
}

// DomainFor returns (creating if needed) the device's protection domain.
func (u *IOMMU) DomainFor(dev DeviceID) *Domain {
	d := u.record(dev)
	if d.domain == nil {
		d.domain = newDomain(dev)
	}
	return d.domain
}

// pageRange returns the first and last IOVA page of [iova, iova+size),
// failing when the range reaches past the 48-bit IOVA space: VT-d faults
// on addresses beyond the domain's address width instead of dropping the
// high bits.
func pageRange(iova IOVA, size int) (first, last uint64, err error) {
	const limit = uint64(1) << IOVABits
	if uint64(iova) >= limit || uint64(size) > limit-uint64(iova) {
		return 0, 0, fmt.Errorf("iommu: iova range %#x+%d beyond the %d-bit IOVA space", uint64(iova), size, IOVABits)
	}
	return iova.Page(), (uint64(iova) + uint64(size) - 1) >> mem.PageShift, nil
}

// Map installs a mapping iova→phys of size bytes (rounded out to whole
// pages) with the given device permissions. It fails if any page of the
// range is already mapped (matching the DMA API contract that every map
// gets a fresh IOVA interval).
func (u *IOMMU) Map(dev DeviceID, iova IOVA, phys mem.Phys, size int, perm Perm) error {
	if size <= 0 {
		return fmt.Errorf("iommu: map of %d bytes", size)
	}
	if iova.Offset() != phys.Offset() {
		return fmt.Errorf("iommu: iova/phys offset mismatch (%#x vs %#x)", uint64(iova), uint64(phys))
	}
	first, last, err := pageRange(iova, size)
	if err != nil {
		return err
	}
	d := u.DomainFor(dev)
	// Validate first: mapping must be all-or-nothing.
	for pg := first; pg <= last; pg++ {
		if _, ok := d.lookup(pg); ok {
			return fmt.Errorf("iommu: iova page %#x already mapped", pg)
		}
	}
	pfn := phys.PFN()
	for pg := first; pg <= last; pg++ {
		d.set(pg, pte{pfn: pfn + (pg - first), perm: perm, valid: true})
	}
	d.mappedPages += last - first + 1
	if u.OnEvent != nil {
		u.emit(Event{Kind: EventMap, Dev: dev, IOVA: iova, Phys: phys, Size: size, Perm: perm})
	}
	return nil
}

// Unmap clears the page-table entries covering [iova, iova+size). It does
// NOT invalidate the IOTLB — that is the caller's (protection strategy's)
// responsibility, which is precisely the crux of strict vs deferred
// protection.
func (u *IOMMU) Unmap(dev DeviceID, iova IOVA, size int) error {
	first, last, err := pageRange(iova, size)
	if err != nil {
		return err
	}
	d := u.DomainFor(dev)
	var cleared, missing uint64
	firstMissing := uint64(0)
	for pg := first; pg <= last; pg++ {
		if d.clear(pg) {
			cleared++
		} else {
			if missing == 0 {
				firstMissing = pg
			}
			missing++
		}
	}
	d.mappedPages -= cleared
	if missing > 0 {
		// Pages already gone: tolerated only as repayment of a quarantine
		// wipe (WipeDomain) — the mapping owner tearing down an entry the
		// policy engine already destroyed. Anything beyond the debt is a
		// genuine double-unmap bug.
		if missing > d.wipeDebt {
			d.wipeDebt = 0
			return fmt.Errorf("iommu: unmap of unmapped iova page %#x", firstMissing)
		}
		d.wipeDebt -= missing
	}
	if u.OnEvent != nil {
		u.emit(Event{Kind: EventUnmap, Dev: dev, IOVA: iova, Size: size})
	}
	return nil
}

// Translate resolves one IOVA for a DMA of the given access type. It
// returns the physical address and the device-side latency (IOTLB hit or
// page walk); on failure it records and returns a fault.
//
// Crucially, the IOTLB is consulted FIRST: a stale cached translation lets
// a DMA through even after the page-table entry was cleared — the deferred
// protection vulnerability window (paper §2.2.1, §4).
func (u *IOMMU) Translate(dev DeviceID, iova IOVA, want Perm) (mem.Phys, uint64, *Fault) {
	u.Translations++
	rec := u.lookup(dev)
	if rec != nil && rec.passthrough {
		return mem.Phys(iova), 0, nil
	}
	if rec != nil && rec.blocked {
		// Quarantined: rejected at the root port. Zero latency, no fault
		// record, no hook — containment must be cheaper than translation.
		u.BlockedDMAs++
		return 0, 0, &Fault{Dev: dev, Addr: iova, Want: want,
			Reason: "device quarantined", At: u.eng.Now()}
	}
	pg := iova.Page()
	if e, ok := u.tlb.Lookup(dev, pg, u.eng.Now()); ok {
		if e.perm&want != want {
			return 0, 0, u.fault(dev, iova, want, "permission denied (iotlb)")
		}
		return mem.Phys(e.pfn<<mem.PageShift) + mem.Phys(iova.Offset()), 0, nil
	}
	walk := u.walkLatency()
	if rec == nil || rec.domain == nil {
		return 0, walk, u.fault(dev, iova, want, "no domain")
	}
	e, ok := rec.domain.lookup(pg)
	if !ok {
		return 0, walk, u.fault(dev, iova, want, "not present")
	}
	if e.perm&want != want {
		return 0, walk, u.fault(dev, iova, want, "permission denied")
	}
	u.tlb.Insert(dev, pg, e, u.eng.Now())
	return mem.Phys(e.pfn<<mem.PageShift) + mem.Phys(iova.Offset()), walk, nil
}

// walkLatency is the device-side cost of one page-table walk. With
// WalkSerialize the single hardware walker is occupied for IOTLBWalk
// cycles per miss, so concurrent misses — a hostile device's fault storm
// included — queue behind each other and the observed latency grows.
func (u *IOMMU) walkLatency() uint64 {
	w := u.costs.IOTLBWalk
	if !u.WalkSerialize {
		return w
	}
	now := u.eng.Now()
	start := u.walkFreeAt
	if now > start {
		start = now
	}
	u.walkFreeAt = start + w
	return start + w - now
}

func (u *IOMMU) fault(dev DeviceID, iova IOVA, want Perm, reason string) *Fault {
	u.FaultCount++
	f := Fault{Dev: dev, Addr: iova, Want: want, Reason: reason, At: u.eng.Now()}
	u.ring.Push(f)
	if u.OnEvent != nil {
		u.emit(Event{Kind: EventFault, Dev: dev, IOVA: iova, Perm: want, Reason: reason})
	}
	if u.FaultHook != nil {
		u.FaultHook(f)
	}
	return &f
}

// DMAResult reports the outcome of a device DMA burst.
type DMAResult struct {
	Done    int    // bytes transferred before any fault
	Latency uint64 // device-side latency (translations + PCIe)
	Fault   *Fault
}

// DMARead performs a device read (device <- memory) of len(b) bytes from
// iova, stopping at the first faulting page.
func (u *IOMMU) DMARead(dev DeviceID, iova IOVA, b []byte) DMAResult {
	return u.dma(dev, iova, b, false)
}

// DMAWrite performs a device write (device -> memory) of len(b) bytes to
// iova, stopping at the first faulting page.
func (u *IOMMU) DMAWrite(dev DeviceID, iova IOVA, b []byte) DMAResult {
	return u.dma(dev, iova, b, true)
}

func (u *IOMMU) dma(dev DeviceID, iova IOVA, b []byte, write bool) DMAResult {
	res := DMAResult{Latency: u.costs.DMALatency}
	want := PermRead
	if write {
		want = PermWrite
	}
	for res.Done < len(b) {
		at := iova + IOVA(res.Done)
		phys, lat, fault := u.Translate(dev, at, want)
		res.Latency += lat
		if fault != nil {
			res.Fault = fault
			return res
		}
		n := mem.PageSize - at.Offset()
		if n > len(b)-res.Done {
			n = len(b) - res.Done
		}
		var err error
		if write {
			err = u.mem.Write(phys, b[res.Done:res.Done+n])
		} else {
			err = u.mem.Read(phys, b[res.Done:res.Done+n])
		}
		if err != nil {
			// Translated to an unallocated frame (e.g. freed memory):
			// the bus aborts the transaction.
			res.Fault = u.fault(dev, at, want, "bus error: "+err.Error())
			return res
		}
		res.Done += n
	}
	return res
}
