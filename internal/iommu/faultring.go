package iommu

// Fault recording ring and device quarantine: the recovery-side face of the
// IOMMU. Real VT-d hardware logs blocked DMAs into a small bank of fault
// recording registers; when software does not drain them fast enough the
// Primary Fault Overflow bit is set and further faults are dropped, not
// accumulated. We model that here with a fixed-capacity ring so a fault
// storm from a hostile device costs O(capacity) memory instead of growing
// an unbounded slice (the pre-ring behaviour), plus a per-device block bit
// that fails a quarantined device's DMAs at the root — before any
// translation work — so containment is cheap.

// DefaultFaultRingCap is the default fault recording ring capacity. VT-d
// implementations expose a handful of fault recording registers; we keep a
// somewhat deeper software-visible ring so tests and the policy engine can
// inspect a useful window of recent faults.
const DefaultFaultRingCap = 256

// FaultRing is a fixed-capacity ring of recorded faults with VT-d style
// overflow semantics: once full, new faults overwrite the oldest and the
// overflow counter advances. Memory use is bounded by the capacity forever.
type FaultRing struct {
	buf      []Fault
	head     int // index of the oldest recorded fault
	n        int // live entries (≤ cap)
	recorded uint64
	overflow uint64
}

// NewFaultRing creates a ring with the given capacity (minimum 1).
func NewFaultRing(capacity int) *FaultRing {
	if capacity < 1 {
		capacity = 1
	}
	return &FaultRing{buf: make([]Fault, capacity)}
}

// Push records a fault, overwriting the oldest entry when full.
func (r *FaultRing) Push(f Fault) {
	r.recorded++
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = f
		r.n++
		return
	}
	// Full: drop the oldest (overflow), record the newest.
	r.buf[r.head] = f
	r.head = (r.head + 1) % len(r.buf)
	r.overflow++
}

// Len returns the number of faults currently held.
func (r *FaultRing) Len() int { return r.n }

// Recorded returns the total number of faults ever pushed.
func (r *FaultRing) Recorded() uint64 { return r.recorded }

// Overflow returns how many faults were lost to overwrite because the ring
// was full (the Primary Fault Overflow analogue).
func (r *FaultRing) Overflow() uint64 { return r.overflow }

// Snapshot returns the held faults oldest-first without consuming them.
func (r *FaultRing) Snapshot() []Fault {
	out := make([]Fault, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.head+i)%len(r.buf)])
	}
	return out
}

// Consume removes and returns up to max faults, oldest-first (the software
// fault handler draining the recording registers). max <= 0 drains all.
func (r *FaultRing) Consume(max int) []Fault {
	if max <= 0 || max > r.n {
		max = r.n
	}
	out := make([]Fault, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, r.buf[r.head])
		r.head = (r.head + 1) % len(r.buf)
		r.n--
	}
	return out
}

// FaultRing exposes the IOMMU's fault recording ring.
func (u *IOMMU) FaultRing() *FaultRing { return u.ring }

// SetFaultRingCap replaces the ring with an empty one of the given
// capacity (for tests and chaos scenarios; resets held faults and
// overflow, not FaultCount).
func (u *IOMMU) SetFaultRingCap(capacity int) {
	u.ring = NewFaultRing(capacity)
}

// Block quarantines a device: every subsequent DMA it issues is rejected
// at the root port with zero translation latency — no page walk, no fault
// record, no FaultHook (the device is already contained; feeding its
// rejections back into fault-rate policy would be a feedback loop). Any
// cached translations are dropped immediately: quarantine is a synchronous
// software action (context-entry update + invalidation by the host), not a
// queued one, so no stale IOTLB entry can outlive it.
func (u *IOMMU) Block(dev DeviceID) {
	if d := u.record(dev); !d.blocked {
		d.blocked = true
		u.blockedDevs++
	}
	u.tlb.InvalidateDevice(dev)
	if u.OnEvent != nil {
		u.emit(Event{Kind: EventBlock, Dev: dev})
	}
}

// Unblock lifts a device's quarantine (readmission after cool-down).
func (u *IOMMU) Unblock(dev DeviceID) {
	if d := u.lookup(dev); d != nil && d.blocked {
		d.blocked = false
		u.blockedDevs--
	}
	if u.OnEvent != nil {
		u.emit(Event{Kind: EventUnblock, Dev: dev})
	}
}

// Blocked reports whether the device is quarantined.
func (u *IOMMU) Blocked(dev DeviceID) bool {
	d := u.lookup(dev)
	return d != nil && d.blocked
}

// DetachDevice models the OS side of a surprise hot-unplug: the device's
// passthrough bypass (if any) is revoked, its domain's page tables are
// torn down, and its cached translations are dropped. A DMA the removed
// (or ghost) device still issues afterwards faults — there is no bypass
// and no translation state left. Returns the number of pages wiped;
// mapping owners' later unmaps of wiped pages are tolerated via the
// domain's wipe debt, as for WipeDomain.
func (u *IOMMU) DetachDevice(dev DeviceID) uint64 {
	u.record(dev).passthrough = false
	n := u.WipeDomain(dev)
	if u.OnEvent != nil {
		u.emit(Event{Kind: EventDetach, Dev: dev})
	}
	return n
}

// BlockedDevices returns the number of currently quarantined devices.
func (u *IOMMU) BlockedDevices() int { return u.blockedDevs }

// WipeDomain tears down every mapping of the device's domain (quarantine
// with TeardownMappings: a fresh page-table root) and drops its cached
// translations. It returns the number of pages wiped. The wipe leaves a
// "debt": owners of the torn-down mappings will still call Unmap during
// their own teardown, and those unmaps of already-wiped pages are
// tolerated up to the debt instead of erroring.
func (u *IOMMU) WipeDomain(dev DeviceID) uint64 {
	d := u.DomainFor(dev)
	n := d.mappedPages
	d.resetRoot()
	d.mappedPages = 0
	d.wipeDebt += n
	u.tlb.InvalidateDevice(dev)
	if u.OnEvent != nil {
		u.emit(Event{Kind: EventWipe, Dev: dev, Arg: n})
	}
	return n
}
