package campaign

import (
	"bytes"
	"fmt"

	"repro/internal/cycles"
	"repro/internal/dmaapi"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// builders constructs fresh payload instances, in the canonical matrix
// row order. Payload instances are single-use, so the registry stores
// constructors, not values.
var builders = []func() Payload{
	func() Payload { return &subPageHarvest{} },
	func() Payload { return &arbitraryScan{} },
	func() Payload { return newReplayWindow(2, true) },
	func() Payload { return &discovery{} },
	func() Payload { return &ringCorrupt{} },
	func() Payload { return &faultStorm{} },
	func() Payload { return &hotplugSurprise{} },
	func() Payload { return &atsSpoof{} },
	func() Payload { return &magazineReuse{} },
	func() Payload { return &staleRead{} },
	func() Payload { return &interruptStorm{} },
}

// Payloads returns the canonical payload names in matrix row order.
func Payloads() []string {
	out := make([]string, len(builders))
	for i, b := range builders {
		out[i] = b().Name()
	}
	return out
}

// Find constructs a fresh instance of the named payload.
func Find(name string) (Payload, error) {
	for _, b := range builders {
		if pl := b(); pl.Name() == name {
			return pl, nil
		}
	}
	return nil, fmt.Errorf("campaign: unknown payload %q", name)
}

// ---- subpage-harvest -------------------------------------------------

// subPageHarvest reads kernel data co-located on the page of a mapped
// DMA buffer: page-granular protection cannot isolate sub-page
// neighbours (the paper's §4 "no sub-page protection" weakness).
type subPageHarvest struct {
	dmaBuf, secBuf mem.Buf
	addr           iommu.IOVA
	mapped         bool
	leaked         []byte
}

func (a *subPageHarvest) Name() string { return "subpage-harvest" }
func (a *subPageHarvest) Title() string {
	return "read a co-located kernel secret through a mapped buffer's page"
}

func (a *subPageHarvest) Identify(p *sim.Proc, t *Target) error {
	var err error
	if a.dmaBuf, a.secBuf, err = t.colocatedPair(256); err != nil {
		return err
	}
	if a.addr, err = t.Mach.Mapper.Map(p, a.dmaBuf, dmaapi.ToDevice); err != nil {
		return err
	}
	a.mapped = true
	return nil
}

func (a *subPageHarvest) Deliver(p *sim.Proc, t *Target) error {
	// The device knows only a.addr; it aims at the secret's offset
	// within the same (presumed-mapped) page.
	target := a.addr - iommu.IOVA(a.addr.Offset()) + iommu.IOVA(a.secBuf.Addr.Offset())
	got := make([]byte, len(Secret))
	res := t.Mach.IOMMU.DMARead(t.Dev(), target, got)
	if leakEquals(got, res.Fault) {
		a.leaked = got
	}
	return nil
}

func (a *subPageHarvest) Verify(p *sim.Proc, t *Target, r *Result) error {
	r.Success = a.leaked != nil
	r.Leaked = a.leaked
	r.Metrics["leaked_bytes"] = float64(len(a.leaked))
	if r.Success {
		r.Detail = "co-located secret exfiltrated through the mapped page"
	} else {
		r.Detail = "sub-page probe denied or returned garbage"
	}
	return nil
}

func (a *subPageHarvest) Cleanup(p *sim.Proc, t *Target) error {
	if !a.mapped {
		return nil
	}
	if err := t.Mach.Mapper.Unmap(p, a.addr, a.dmaBuf.Size, dmaapi.ToDevice); err != nil {
		return err
	}
	t.Mach.Mapper.Quiesce(p)
	return nil
}

// ---- arbitrary-scan --------------------------------------------------

// arbitraryScan DMAs to an address the OS never authorized at all: the
// physical address of a fresh kernel allocation, used directly as an
// IOVA. Only translation-free designs let it through.
type arbitraryScan struct {
	kernel  mem.Buf
	content []byte
	got     []byte
	fault   *iommu.Fault
}

func (a *arbitraryScan) Name() string { return "arbitrary-scan" }
func (a *arbitraryScan) Title() string {
	return "DMA-read a never-mapped kernel allocation by physical address"
}

func (a *arbitraryScan) Identify(p *sim.Proc, t *Target) error {
	var err error
	if a.kernel, err = t.Mach.Kmal.Alloc(0, 4096); err != nil {
		return err
	}
	a.content = []byte("unmapped kernel memory")
	return t.Mach.Mem.Write(a.kernel.Addr, a.content)
}

func (a *arbitraryScan) Deliver(p *sim.Proc, t *Target) error {
	a.got = make([]byte, len(a.content))
	res := t.Mach.IOMMU.DMARead(t.Dev(), iommu.IOVA(a.kernel.Addr), a.got)
	a.fault = res.Fault
	return nil
}

func (a *arbitraryScan) Verify(p *sim.Proc, t *Target, r *Result) error {
	r.Success = a.fault == nil && bytes.Equal(a.got, a.content)
	if r.Success {
		r.Detail = "unauthorized physical read succeeded"
	} else {
		r.Detail = "unauthorized read denied"
	}
	return nil
}

func (a *arbitraryScan) Cleanup(p *sim.Proc, t *Target) error { return nil }

// ---- replay-window ---------------------------------------------------

// replayWindow performs the paper's §3 attack: use a mapping
// legitimately, let the OS unmap and reuse the buffer, then replay a
// write to the stale IOVA after DelayUs. With CheckFlush it additionally
// verifies whether draining deferred invalidations closes the window.
// WindowSweep re-runs it at swept delays.
type replayWindow struct {
	DelayUs    float64
	CheckFlush bool

	m      *Mapping
	landed bool
	closed bool
}

// newReplayWindow builds the payload with the given post-unmap delay.
func newReplayWindow(delayUs float64, checkFlush bool) *replayWindow {
	return &replayWindow{DelayUs: delayUs, CheckFlush: checkFlush}
}

func (w *replayWindow) Name() string { return "replay-window" }
func (w *replayWindow) Title() string {
	return "replay a just-unmapped IOVA and corrupt reused OS memory"
}

func (w *replayWindow) Identify(p *sim.Proc, t *Target) error {
	var err error
	if w.m, err = t.MapVictim(p, 1500, dmaapi.FromDevice); err != nil {
		return err
	}
	return t.BenignDMA(p, w.m)
}

func (w *replayWindow) Deliver(p *sim.Proc, t *Target) error {
	// The OS unmaps and immediately reuses the memory (sentinel fill).
	if err := t.UnmapVictim(p, w.m); err != nil {
		return err
	}
	sleepUs(p, w.DelayUs)
	evil := []byte("EVIL-REPLAYED-DMA-WRITE")
	t.ReplayObserved(p, w.m.Index, evil)
	var err error
	if w.landed, err = t.corrupted(w.m); err != nil {
		return err
	}
	if !w.CheckFlush {
		return nil
	}
	// Restore, drain deferred invalidations, and replay again: does the
	// strategy ever close the window?
	if err := t.restoreSentinel(w.m); err != nil {
		return err
	}
	t.Mach.Mapper.Quiesce(p)
	sleepUs(p, 10) // let invalidation hardware drain
	t.ReplayObserved(p, w.m.Index, evil)
	again, err := t.corrupted(w.m)
	if err != nil {
		return err
	}
	w.closed = !again
	return nil
}

func (w *replayWindow) Verify(p *sim.Proc, t *Target, r *Result) error {
	r.Success = w.landed
	r.Metrics["window_hit"] = b2f(w.landed)
	if w.CheckFlush {
		r.Metrics["closed_after_flush"] = b2f(w.closed)
	}
	if w.landed {
		r.Detail = fmt.Sprintf("stale replay landed %.0fus after unmap", w.DelayUs)
	} else {
		r.Detail = "post-unmap replay faulted or landed harmlessly"
	}
	return nil
}

func (w *replayWindow) Cleanup(p *sim.Proc, t *Target) error { return nil }

// ---- ring-corrupt ----------------------------------------------------

// ringCorrupt attacks from the descriptor ring outwards: a coherent
// (permanently mapped) ring is legitimate DMA territory, and the device
// probes page offsets beyond it hoping the mapping is not page-exact.
const ringSentinel = 0x33

type ringCorrupt struct {
	ringIOVA     iommu.IOVA
	ringBuf      mem.Buf
	neighbor     mem.Buf
	allocated    bool
	ringOK       bool
	probesLanded int
}

func (a *ringCorrupt) Name() string { return "ring-corrupt" }
func (a *ringCorrupt) Title() string {
	return "overrun a coherent descriptor ring into neighbouring kernel pages"
}

func (a *ringCorrupt) Identify(p *sim.Proc, t *Target) error {
	var err error
	if a.ringIOVA, a.ringBuf, err = t.Mach.Mapper.AllocCoherent(p, mem.PageSize); err != nil {
		return err
	}
	a.allocated = true
	// The very next kernel allocation is the ring's physical neighbour.
	if a.neighbor, err = t.Mach.Kmal.Alloc(0, mem.PageSize); err != nil {
		return err
	}
	return t.Mach.Mem.Fill(a.neighbor, ringSentinel)
}

func (a *ringCorrupt) Deliver(p *sim.Proc, t *Target) error {
	// Legitimate use first: a completion write into the ring.
	res := t.Mach.IOMMU.DMAWrite(t.Dev(), a.ringIOVA, []byte("ring-status:ok"))
	a.ringOK = res.Fault == nil
	// Then probe successive page offsets past the ring.
	page := bytes.Repeat([]byte{0xEE}, mem.PageSize)
	for k := 1; k <= 8; k++ {
		res := t.Mach.IOMMU.DMAWrite(t.Dev(), a.ringIOVA+iommu.IOVA(k*mem.PageSize), page)
		if res.Fault == nil {
			a.probesLanded++
		}
	}
	return nil
}

func (a *ringCorrupt) Verify(p *sim.Proc, t *Target, r *Result) error {
	n, err := t.audit.Corrupted(t.Mach.Mem, a.neighbor, ringSentinel)
	if err != nil {
		return err
	}
	corrupted := n > 0
	r.Success = corrupted
	r.Metrics["ring_dma_ok"] = b2f(a.ringOK)
	r.Metrics["probes_landed"] = float64(a.probesLanded)
	if corrupted {
		r.Detail = "ring overrun corrupted the neighbouring kernel page"
	} else {
		r.Detail = "probes past the ring faulted or landed harmlessly"
	}
	return nil
}

func (a *ringCorrupt) Cleanup(p *sim.Proc, t *Target) error {
	if !a.allocated {
		return nil
	}
	return t.Mach.Mapper.FreeCoherent(p, a.ringIOVA, a.ringBuf)
}

// ---- fault-storm -----------------------------------------------------

// faultStorm floods the IOMMU with DMAs to stale victim addresses for
// ~15 ms. Against a translating design every post-flush replay faults,
// the fault-domain supervisor drains its token bucket and the device is
// quarantined; the attack "succeeds" only if the device finishes the
// storm unquarantined AND corrupted real OS memory along the way.
type faultStorm struct {
	targets   []iommu.IOVA
	stormDMAs int
}

// stormPolicy tolerates a modest fault rate, then quarantines for good:
// the payload measures containment, not recovery.
func stormPolicy() resilience.Policy {
	return resilience.Policy{
		FaultBurst:  16,
		RefillEvery: cycles.FromMicros(50),
		Cooldown:    resilience.NoReadmit,
		MaxReadmits: -1,
	}
}

func (a *faultStorm) Name() string { return "fault-storm" }
func (a *faultStorm) Title() string {
	return "sustained stale-address DMA flood vs the quarantine engine"
}

func (a *faultStorm) Identify(p *sim.Proc, t *Target) error {
	t.ArmSupervisor(stormPolicy())
	if err := t.RunTraffic(p, 16); err != nil {
		return err
	}
	a.targets = append([]iommu.IOVA{}, t.Observed...)
	if len(a.targets) == 0 {
		return fmt.Errorf("no observed addresses to storm")
	}
	return nil
}

func (a *faultStorm) Deliver(p *sim.Proc, t *Target) error {
	evil := []byte("FAULT-STORM-DMA")
	// 96 rounds x 160us spans the 10 ms deferred-flush deadline, so
	// deferred designs are observed transitioning open-window -> fault
	// -> quarantine mid-storm.
	for round := 0; round < 96; round++ {
		for _, addr := range a.targets {
			t.Mach.IOMMU.DMAWrite(t.Dev(), addr, evil)
			a.stormDMAs++
		}
		sleepUs(p, 160)
	}
	return nil
}

func (a *faultStorm) Verify(p *sim.Proc, t *Target, r *Result) error {
	blocked := t.Mach.IOMMU.Blocked(t.Dev())
	corrupted, err := t.CorruptedStale()
	if err != nil {
		return err
	}
	r.Success = !blocked && len(corrupted) > 0
	r.Metrics["storm_dmas"] = float64(a.stormDMAs)
	r.Metrics["corrupted_records"] = float64(len(corrupted))
	r.Metrics["quarantined"] = b2f(blocked)
	if st := t.Sup.Stats(t.Dev()); st.Quarantines > 0 {
		r.Metrics["time_to_quarantine_us"] = cycles.Micros(st.QuarantinedAt)
	}
	switch {
	case r.Success:
		r.Detail = "storm ran to completion unquarantined and corrupted OS memory"
	case blocked:
		r.Detail = "device quarantined mid-storm"
	default:
		r.Detail = "storm finished but never reached OS memory"
	}
	return nil
}

func (a *faultStorm) Cleanup(p *sim.Proc, t *Target) error { return nil }

// ---- hotplug-surprise ------------------------------------------------

// hotplugSurprise models surprise removal: the OS, believing the device
// gone, frees a still-mapped RX buffer and reuses the memory — then a
// ghost of the device (or a spoofed bus peer) writes to the live
// mapping. Only detaching the device at the IOMMU (DetachDevice) closes
// the channel, which the payload verifies as a second act.
type hotplugSurprise struct {
	m           *Mapping
	sensitive   []byte
	landed      bool
	closedAfter bool
}

func (a *hotplugSurprise) Name() string { return "hotplug-surprise" }
func (a *hotplugSurprise) Title() string {
	return "ghost write through a mapping orphaned by surprise removal"
}

func (a *hotplugSurprise) Identify(p *sim.Proc, t *Target) error {
	var err error
	if a.m, err = t.MapVictim(p, 1500, dmaapi.FromDevice); err != nil {
		return err
	}
	return t.BenignDMA(p, a.m)
}

func (a *hotplugSurprise) Deliver(p *sim.Proc, t *Target) error {
	// Surprise removal: the OS frees the buffer without unmapping (it
	// believes the device is gone) and the allocator reuses the memory.
	if err := t.Mach.Kmal.Free(a.m.Buf); err != nil {
		return err
	}
	a.sensitive = []byte("dm-crypt:volume-master-key:0xFEEDFACE")
	if err := t.Mach.Mem.Write(a.m.Buf.Addr, a.sensitive); err != nil {
		return err
	}
	// Well past any IOTLB TTL: what matters here is the live page-table
	// entry nobody tore down, not stale cached state.
	sleepUs(p, 30)
	ghost := []byte("GHOST-DEVICE-POST-REMOVAL-WRITE")
	t.ReplayObserved(p, a.m.Index, ghost)
	snap, err := t.Mach.Mem.Snapshot(a.m.Buf)
	if err != nil {
		return err
	}
	a.landed = !bytes.Equal(snap[:len(a.sensitive)], a.sensitive)
	// The fix: detach the device at the IOMMU, then replay again.
	if err := t.Mach.Mem.Write(a.m.Buf.Addr, a.sensitive); err != nil {
		return err
	}
	t.Mach.IOMMU.DetachDevice(t.Dev())
	t.ReplayObserved(p, a.m.Index, ghost)
	snap, err = t.Mach.Mem.Snapshot(a.m.Buf)
	if err != nil {
		return err
	}
	a.closedAfter = bytes.Equal(snap[:len(a.sensitive)], a.sensitive)
	return nil
}

func (a *hotplugSurprise) Verify(p *sim.Proc, t *Target, r *Result) error {
	r.Success = a.landed
	r.Metrics["ghost_write_hit"] = b2f(a.landed)
	r.Metrics["closed_after_detach"] = b2f(a.closedAfter)
	if a.landed {
		r.Detail = "orphaned mapping let the ghost device corrupt reused memory"
	} else {
		r.Detail = "ghost write never reached the reused memory"
	}
	return nil
}

func (a *hotplugSurprise) Cleanup(p *sim.Proc, t *Target) error {
	// Driver teardown finally runs; unmapping pages wiped by the detach
	// is tolerated via the domain's wipe debt.
	if a.m == nil || !a.m.Live {
		return nil
	}
	a.m.Live = false
	a.m.UnmappedAt = p.Now()
	return t.Mach.Mapper.Unmap(p, a.m.IOVA, a.m.Buf.Size, a.m.Dir)
}

// ---- ats-spoof -------------------------------------------------------

// atsSpoof models a device abusing PCIe Address Translation Services:
// it marks its request "pre-translated" by aiming a raw physical
// address at memory it was never given. Designs whose IOVAs coincide
// with physical addresses (passthrough and identity mapping) cannot
// tell the spoof from a legitimate access.
type atsSpoof struct {
	m      *Mapping
	secBuf mem.Buf
	leaked []byte
}

func (a *atsSpoof) Name() string { return "ats-spoof" }
func (a *atsSpoof) Title() string {
	return "pre-translated (raw physical) read against a live neighbour mapping"
}

func (a *atsSpoof) Identify(p *sim.Proc, t *Target) error {
	dmaBuf, secBuf, err := t.colocatedPair(256)
	if err != nil {
		return err
	}
	a.secBuf = secBuf
	a.m, err = t.MapVictimBuf(p, dmaBuf, dmaapi.FromDevice)
	return err
}

func (a *atsSpoof) Deliver(p *sim.Proc, t *Target) error {
	got := make([]byte, len(Secret))
	res := t.Mach.IOMMU.DMARead(t.Dev(), iommu.IOVA(a.secBuf.Addr), got)
	if leakEquals(got, res.Fault) {
		a.leaked = got
	}
	return nil
}

func (a *atsSpoof) Verify(p *sim.Proc, t *Target, r *Result) error {
	r.Success = a.leaked != nil
	r.Leaked = a.leaked
	r.Metrics["leaked_bytes"] = float64(len(a.leaked))
	if r.Success {
		r.Detail = "raw-physical read bypassed translation and leaked the secret"
	} else {
		r.Detail = "spoofed pre-translated access denied"
	}
	return nil
}

func (a *atsSpoof) Cleanup(p *sim.Proc, t *Target) error {
	if a.m == nil {
		return nil
	}
	if err := t.UnmapVictim(p, a.m); err != nil {
		return err
	}
	t.Mach.Mapper.Quiesce(p)
	return nil
}

// ---- magazine-reuse --------------------------------------------------

// magazineReuse probes the allocator-recycling race: map/unmap cycles
// watch how quickly IOVA space is re-handed out, then the device
// replays the freshest stale address immediately — inside any deferred
// or TTL window, and possibly aimed at whoever got the address next.
type magazineReuse struct {
	last          *Mapping
	reuseDistance int
	landed        bool
}

func (a *magazineReuse) Name() string { return "magazine-reuse" }
func (a *magazineReuse) Title() string {
	return "replay the freshest recycled IOVA inside the reuse window"
}

func (a *magazineReuse) Identify(p *sim.Proc, t *Target) error {
	// Warm the allocator caches and the IOTLB with ordinary traffic.
	return t.RunTraffic(p, 8)
}

func (a *magazineReuse) Deliver(p *sim.Proc, t *Target) error {
	seen := make(map[iommu.IOVA]int)
	for j := 0; j < 8; j++ {
		m, err := t.MapVictim(p, 1500, dmaapi.FromDevice)
		if err != nil {
			return err
		}
		base := m.IOVA - iommu.IOVA(m.IOVA.Offset())
		if prev, ok := seen[base]; ok && a.reuseDistance == 0 {
			a.reuseDistance = j - prev
		} else if !ok {
			seen[base] = j
		}
		if err := t.BenignDMA(p, m); err != nil {
			return err
		}
		if err := t.UnmapVictim(p, m); err != nil {
			return err
		}
		a.last = m
	}
	sleepUs(p, 1)
	t.ReplayObserved(p, a.last.Index, []byte("MAGAZINE-REUSE-RACE-WRITE"))
	var err error
	a.landed, err = t.corrupted(a.last)
	return err
}

func (a *magazineReuse) Verify(p *sim.Proc, t *Target, r *Result) error {
	r.Success = a.landed
	r.Metrics["reuse_distance"] = float64(a.reuseDistance)
	r.Metrics["replay_hit"] = b2f(a.landed)
	if a.landed {
		r.Detail = "freshest recycled address replayed into reused OS memory"
	} else {
		r.Detail = "recycled-address replay faulted or landed harmlessly"
	}
	return nil
}

func (a *magazineReuse) Cleanup(p *sim.Proc, t *Target) error { return nil }

// ---- stale-read ------------------------------------------------------

// staleRead exploits direction-blind permissions: an RX buffer is
// mapped for device WRITES only, but whatever the kernel previously
// kept in that slab slot is still there. A design that grants RW where
// write-only suffices lets the device read it out.
type staleRead struct {
	m     *Mapping
	got   []byte
	fault *iommu.Fault
}

func (a *staleRead) Name() string { return "stale-read" }
func (a *staleRead) Title() string {
	return "read stale kernel data out of a write-only RX mapping"
}

func (a *staleRead) Identify(p *sim.Proc, t *Target) error {
	buf, err := t.Mach.Kmal.Alloc(0, 1500)
	if err != nil {
		return err
	}
	// Stale kernel data left behind in the recycled slab slot.
	if err := t.Mach.Mem.Write(buf.Addr, Secret); err != nil {
		return err
	}
	a.m, err = t.MapVictimBuf(p, buf, dmaapi.FromDevice)
	return err
}

func (a *staleRead) Deliver(p *sim.Proc, t *Target) error {
	a.got = make([]byte, len(Secret))
	res := t.Mach.IOMMU.DMARead(t.Dev(), t.Observed[a.m.Index], a.got)
	a.fault = res.Fault
	return nil
}

func (a *staleRead) Verify(p *sim.Proc, t *Target, r *Result) error {
	r.Success = leakEquals(a.got, a.fault)
	if r.Success {
		r.Leaked = a.got
	}
	r.Metrics["read_denied"] = b2f(a.fault != nil)
	if r.Success {
		r.Detail = "write-only mapping readable: stale kernel data leaked"
	} else {
		r.Detail = "device read of the RX mapping denied or empty"
	}
	return nil
}

func (a *staleRead) Cleanup(p *sim.Proc, t *Target) error {
	if a.m == nil {
		return nil
	}
	if err := t.UnmapVictim(p, a.m); err != nil {
		return err
	}
	t.Mach.Mapper.Quiesce(p)
	return nil
}

// ---- interrupt-storm -------------------------------------------------

// interruptStorm spams message-signaled-interrupt doorbell writes at
// vectors the OS never granted the device — an interrupt flood aimed at
// other devices' handlers. Interrupt remapping (active whenever the
// design translates) blocks every ungranted vector; translation-free
// designs deliver the raw doorbell writes to the interrupt controller.
type interruptStorm struct {
	before iommu.MSIStats
	writes int
}

func (a *interruptStorm) Name() string { return "interrupt-storm" }
func (a *interruptStorm) Title() string {
	return "flood ungranted MSI vectors through the interrupt doorbell"
}

func (a *interruptStorm) Identify(p *sim.Proc, t *Target) error {
	// Behave first: ordinary traffic establishes the device's granted
	// vectors as the baseline the storm then departs from.
	if err := t.RunTraffic(p, 8); err != nil {
		return err
	}
	a.before = t.Mach.IOMMU.MSIStats()
	return nil
}

func (a *interruptStorm) Deliver(p *sim.Proc, t *Target) error {
	// 64 rounds x 8 high vectors (0xE0..0xE7 — nothing the NIC was ever
	// granted), spaced like a real storm rather than one burst.
	for round := 0; round < 64; round++ {
		for v := uint32(0); v < 8; v++ {
			t.Mach.IOMMU.MSIWrite(t.Dev(), iommu.MSIBase, 0xE0+v)
			a.writes++
		}
		sleepUs(p, 5)
	}
	return nil
}

func (a *interruptStorm) Verify(p *sim.Proc, t *Target, r *Result) error {
	st := t.Mach.IOMMU.MSIStats()
	spurious := st.Spurious - a.before.Spurious
	blocked := st.Blocked - a.before.Blocked
	r.Success = spurious >= uint64(a.writes)
	r.Metrics["msi_writes"] = float64(a.writes)
	r.Metrics["spurious_delivered"] = float64(spurious)
	r.Metrics["remap_blocked"] = float64(blocked)
	if r.Success {
		r.Detail = "every ungranted doorbell write reached the interrupt controller"
	} else {
		r.Detail = "interrupt remapping blocked the storm"
	}
	return nil
}

func (a *interruptStorm) Cleanup(p *sim.Proc, t *Target) error { return nil }
