package iommu

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cycles"
	"repro/internal/mem"
	"repro/internal/sim"
)

func setup() (*sim.Engine, *mem.Memory, *IOMMU) {
	eng := sim.NewEngine()
	m := mem.New(1)
	u := New(eng, m, cycles.Default())
	return eng, m, u
}

func TestMapTranslateUnmap(t *testing.T) {
	_, m, u := setup()
	phys, _ := m.AllocPages(0, 2)
	iova := IOVA(0x1000_0000)
	if err := u.Map(1, iova, phys, 2*mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	got, _, fault := u.Translate(1, iova+5000, PermRead)
	if fault != nil {
		t.Fatal(fault)
	}
	if got != phys+5000 {
		t.Errorf("translate = %#x, want %#x", uint64(got), uint64(phys+5000))
	}
	if err := u.Unmap(1, iova, 2*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	u.TLB().InvalidateDevice(1)
	if _, _, fault := u.Translate(1, iova, PermRead); fault == nil {
		t.Error("translate after unmap+invalidate should fault")
	}
}

func TestPermissionEnforcement(t *testing.T) {
	_, m, u := setup()
	phys, _ := m.AllocPages(0, 1)
	if err := u.Map(1, 0x2000, phys, 100, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, _, fault := u.Translate(1, 0x2000, PermRead); fault != nil {
		t.Error("read should be allowed")
	}
	if _, _, fault := u.Translate(1, 0x2000, PermWrite); fault == nil {
		t.Error("write to read-only mapping should fault")
	}
	// Permission check must also apply on the IOTLB hit path.
	if _, _, fault := u.Translate(1, 0x2000, PermWrite); fault == nil {
		t.Error("write via cached entry should fault")
	}
}

func TestPageGranularityExposesWholePage(t *testing.T) {
	// The sub-page weakness (paper §4): mapping 100 bytes maps the whole
	// 4 KiB page, so the device can reach co-located data.
	_, m, u := setup()
	phys, _ := m.AllocPages(0, 1)
	secret := []byte("co-located secret")
	if err := m.Write(phys+2000, secret); err != nil {
		t.Fatal(err)
	}
	// Map only the first 100 bytes of the page.
	if err := u.Map(1, 0x5000, phys, 100, PermRead); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(secret))
	res := u.DMARead(1, 0x5000+2000, got)
	if res.Fault != nil {
		t.Fatalf("unexpected fault: %v", res.Fault)
	}
	if !bytes.Equal(got, secret) {
		t.Error("device should be able to read the whole mapped page")
	}
}

func TestDoubleMapAndBadUnmap(t *testing.T) {
	_, m, u := setup()
	phys, _ := m.AllocPages(0, 1)
	if err := u.Map(1, 0x3000, phys, 100, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := u.Map(1, 0x3000, phys, 100, PermRW); err == nil {
		t.Error("double map should fail")
	}
	if err := u.Unmap(1, 0x9000, 100); err == nil {
		t.Error("unmap of unmapped should fail")
	}
	if err := u.Map(1, 0x4001, phys, 100, PermRW); err == nil {
		t.Error("offset mismatch should fail")
	}
	if err := u.Map(1, 0x4000, phys, 0, PermRW); err == nil {
		t.Error("zero-size map should fail")
	}
}

// TestIOVABeyond48BitsFaults checks that the page walk does not drop
// address bits above the 48-bit IOVA space: a DMA there faults instead of
// reaching the page 2^48 below it, and Map and Unmap there fail.
func TestIOVABeyond48BitsFaults(t *testing.T) {
	_, m, u := setup()
	phys, _ := m.AllocPages(0, 1)
	const iova = IOVA(0x1000_0000)
	if err := u.Map(1, iova, phys, mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	for _, alias := range []IOVA{iova + 1<<48, iova + 1<<60} {
		if res := u.DMAWrite(1, alias, []byte("x")); res.Fault == nil || res.Done != 0 {
			t.Errorf("DMA write to %#x reached the page mapped at %#x: %+v", uint64(alias), uint64(iova), res)
		}
		if _, _, f := u.Translate(1, alias, PermRead); f == nil {
			t.Errorf("translate of %#x succeeded", uint64(alias))
		}
		if err := u.Map(1, alias, phys, mem.PageSize, PermRW); err == nil {
			t.Errorf("map at %#x succeeded", uint64(alias))
		}
		if err := u.Unmap(1, alias, mem.PageSize); err == nil {
			t.Errorf("unmap at %#x succeeded", uint64(alias))
		}
	}
	// A range that starts inside the space but ends past it fails whole.
	top := IOVA(1<<48 - mem.PageSize)
	if err := u.Map(1, top, phys, 2*mem.PageSize, PermRW); err == nil {
		t.Error("map across the top of the IOVA space succeeded")
	}
	if err := u.Map(1, top, phys, mem.PageSize, PermRW); err != nil {
		t.Fatalf("map of the last IOVA page: %v", err)
	}
	if got := u.DomainFor(1).MappedPages(); got != 2 {
		t.Errorf("mapped pages = %d, want 2", got)
	}
}

// TestDeviceRecordsAreIndependent checks that one device's passthrough,
// quarantine, domain and MSI grants never show through another's, in
// whatever order the devices are looked up.
func TestDeviceRecordsAreIndependent(t *testing.T) {
	_, m, u := setup()
	phys, _ := m.AllocPages(0, 1)
	if err := u.Map(1, 0x5000, phys, mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	u.SetPassthrough(2, true)
	u.GrantMSI(1, 40)
	u.Block(3)
	u.Block(3)
	if got := u.BlockedDevices(); got != 1 {
		t.Errorf("blocked devices = %d after blocking one device twice", got)
	}
	for i := 0; i < 2; i++ {
		if _, _, f := u.Translate(1, 0x5000, PermWrite); f != nil {
			t.Errorf("dev 1: %v", f)
		}
		if got, _, f := u.Translate(2, 0x5000, PermWrite); f != nil || got != 0x5000 {
			t.Errorf("passthrough dev 2: %#x, %v", uint64(got), f)
		}
		if _, _, f := u.Translate(3, 0x5000, PermWrite); f == nil || f.Reason != "device quarantined" {
			t.Errorf("quarantined dev 3: %v", f)
		}
		if _, _, f := u.Translate(4, 0x5000, PermWrite); f == nil || f.Reason != "no domain" {
			t.Errorf("unknown dev 4: %v", f)
		}
		if res := u.MSIWrite(2, MSIBase, 40); res.Granted {
			t.Error("dev 1's MSI grant showed through dev 2")
		}
		if !u.Blocked(3) || u.Blocked(1) || u.Blocked(4) {
			t.Error("quarantine showed through another device")
		}
	}
	u.Unblock(3)
	u.Unblock(3)
	u.Unblock(4)
	if got := u.BlockedDevices(); got != 0 {
		t.Errorf("blocked devices = %d after unblocking", got)
	}
	if n := u.DetachDevice(2); n != 0 {
		t.Errorf("detach of a passthrough device wiped %d pages", n)
	}
	if _, _, f := u.Translate(2, 0x5000, PermWrite); f == nil {
		t.Error("detached dev 2 still bypasses translation")
	}
}

func TestIOTLBWindowAfterUnmap(t *testing.T) {
	// The deferred-protection vulnerability window: after Unmap (PTE
	// cleared) but before IOTLB invalidation, a previously-used
	// translation still works.
	_, m, u := setup()
	phys, _ := m.AllocPages(0, 1)
	iova := IOVA(0x7000)
	if err := u.Map(1, iova, phys, mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	// Device uses the mapping: loads the IOTLB.
	buf := make([]byte, 8)
	if res := u.DMAWrite(1, iova, []byte("AAAABBBB")); res.Fault != nil {
		t.Fatal(res.Fault)
	}
	// OS unmaps but does not invalidate (deferred).
	if err := u.Unmap(1, iova, mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if !u.TLB().Cached(1, iova.Page()) {
		t.Fatal("translation should still be cached")
	}
	// The device can still write! (the window)
	if res := u.DMAWrite(1, iova, []byte("EVILEVIL")); res.Fault != nil {
		t.Errorf("window write should succeed, got fault: %v", res.Fault)
	}
	if err := m.Read(phys, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte("EVILEVIL")) {
		t.Error("window write did not land")
	}
	// After invalidation the window closes.
	u.TLB().InvalidatePages(1, iova.Page(), 1)
	if res := u.DMAWrite(1, iova, []byte("again")); res.Fault == nil {
		t.Error("write after invalidation should fault")
	}
}

func TestDMAReadWriteRoundTrip(t *testing.T) {
	_, m, u := setup()
	phys, _ := m.AllocPages(0, 4)
	iova := IOVA(0x10000)
	if err := u.Map(1, iova, phys, 4*mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3*mem.PageSize)
	rand.New(rand.NewSource(7)).Read(data)
	if res := u.DMAWrite(1, iova+100, data); res.Fault != nil || res.Done != len(data) {
		t.Fatalf("write: %+v", res)
	}
	got := make([]byte, len(data))
	if res := u.DMARead(1, iova+100, got); res.Fault != nil || res.Done != len(got) {
		t.Fatalf("read: %+v", res)
	}
	if !bytes.Equal(got, data) {
		t.Error("DMA round trip corrupted data")
	}
}

func TestDMAPartialFault(t *testing.T) {
	_, m, u := setup()
	phys, _ := m.AllocPages(0, 1)
	iova := IOVA(0x20000)
	if err := u.Map(1, iova, phys, mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	// DMA of 2 pages: first page mapped, second not.
	data := make([]byte, 2*mem.PageSize)
	res := u.DMAWrite(1, iova, data)
	if res.Fault == nil {
		t.Fatal("expected fault on second page")
	}
	if res.Done != mem.PageSize {
		t.Errorf("Done = %d, want %d", res.Done, mem.PageSize)
	}
	if u.FaultCount == 0 || len(u.Faults()) == 0 {
		t.Error("fault should be recorded")
	}
}

func TestPassthroughMode(t *testing.T) {
	_, m, u := setup()
	phys, _ := m.AllocPages(0, 1)
	u.SetPassthrough(9, true)
	got, lat, fault := u.Translate(9, IOVA(phys), PermRW)
	if fault != nil || got != phys || lat != 0 {
		t.Errorf("passthrough translate: %#x %d %v", uint64(got), lat, fault)
	}
	u.SetPassthrough(9, false)
	if _, _, fault := u.Translate(9, IOVA(phys), PermRW); fault == nil {
		t.Error("translation should fault once passthrough is off")
	}
}

func TestFaultHookFires(t *testing.T) {
	_, _, u := setup()
	var seen []Fault
	u.FaultHook = func(f Fault) { seen = append(seen, f) }
	u.Translate(3, 0xdead000, PermRead)
	if len(seen) != 1 || seen[0].Dev != 3 {
		t.Errorf("hook: %+v", seen)
	}
	if seen[0].Error() == "" {
		t.Error("fault should format")
	}
}

func TestPageTableManyRandomPages(t *testing.T) {
	d := newDomain(1)
	rng := rand.New(rand.NewSource(99))
	ref := map[uint64]uint64{}
	for i := 0; i < 5000; i++ {
		pg := rng.Uint64() & ((1 << (IOVABits - mem.PageShift)) - 1)
		pfn := rng.Uint64()
		d.set(pg, pte{pfn: pfn, perm: PermRW, valid: true})
		ref[pg] = pfn
	}
	for pg, pfn := range ref {
		e, ok := d.lookup(pg)
		if !ok || e.pfn != pfn {
			t.Fatalf("lookup(%#x) = %+v ok=%v, want pfn %#x", pg, e, ok, pfn)
		}
	}
	// Clear half, verify.
	i := 0
	for pg := range ref {
		if i%2 == 0 {
			if !d.clear(pg) {
				t.Fatalf("clear(%#x) failed", pg)
			}
			delete(ref, pg)
		}
		i++
	}
	for pg, pfn := range ref {
		e, ok := d.lookup(pg)
		if !ok || e.pfn != pfn {
			t.Fatalf("post-clear lookup(%#x) failed", pg)
		}
	}
}

func TestIOTLBEviction(t *testing.T) {
	tlb := NewIOTLB(1, 2) // one set, two ways
	tlb.Insert(1, 10, pte{pfn: 100, valid: true}, 0)
	tlb.Insert(1, 20, pte{pfn: 200, valid: true}, 0)
	tlb.Lookup(1, 10, 0) // make page 10 MRU
	tlb.Insert(1, 30, pte{pfn: 300, valid: true}, 0)
	if tlb.Cached(1, 20) {
		t.Error("LRU entry (20) should have been evicted")
	}
	if !tlb.Cached(1, 10) || !tlb.Cached(1, 30) {
		t.Error("MRU and new entries should remain")
	}
	if tlb.Evictions != 1 {
		t.Errorf("evictions = %d", tlb.Evictions)
	}
}

func TestIOTLBInvalidateScopes(t *testing.T) {
	tlb := NewIOTLB(8, 4)
	tlb.Insert(1, 10, pte{pfn: 1, valid: true}, 0)
	tlb.Insert(1, 11, pte{pfn: 2, valid: true}, 0)
	tlb.Insert(2, 10, pte{pfn: 3, valid: true}, 0)
	tlb.InvalidatePages(1, 10, 1)
	if tlb.Cached(1, 10) || !tlb.Cached(1, 11) || !tlb.Cached(2, 10) {
		t.Error("page-selective invalidation scope wrong")
	}
	tlb.InvalidateDevice(1)
	if tlb.Cached(1, 11) || !tlb.Cached(2, 10) {
		t.Error("device-selective invalidation scope wrong")
	}
	tlb.InvalidateAll()
	if tlb.Cached(2, 10) {
		t.Error("global invalidation scope wrong")
	}
}

func TestIOTLBInvalidateStatsDeltas(t *testing.T) {
	// Each Invalidate* call counts exactly once regardless of how many
	// entries it drops or which scan strategy it uses, and invalidated
	// entries become misses on the next lookup.
	// Small set count so a multi-page range crosses sets, with enough
	// ways that all 16 inserted entries fit without evictions.
	tlb := NewIOTLB(4, 8)
	load := func() {
		for p := uint64(0); p < 8; p++ {
			tlb.Insert(1, p, pte{pfn: 100 + p, valid: true}, 0)
			tlb.Insert(2, p, pte{pfn: 200 + p, valid: true}, 0)
		}
	}

	// 1-page invalidation: indexed path (npages < sets).
	load()
	inv, misses := tlb.Invalidations, tlb.Misses
	tlb.InvalidatePages(1, 3, 1)
	if got := tlb.Invalidations - inv; got != 1 {
		t.Errorf("1-page invalidation counted %d times", got)
	}
	if tlb.Cached(1, 3) {
		t.Error("1-page invalidation left the entry cached")
	}
	if !tlb.Cached(2, 3) {
		t.Error("1-page invalidation leaked to another device")
	}
	if _, ok := tlb.Lookup(1, 3, 0); ok || tlb.Misses != misses+1 {
		t.Error("invalidated page should miss")
	}

	// Multi-page range crossing sets, still on the indexed path.
	load()
	inv = tlb.Invalidations
	tlb.InvalidatePages(1, 1, 3) // pages 1..3 hash to different sets
	if got := tlb.Invalidations - inv; got != 1 {
		t.Errorf("multi-page invalidation counted %d times", got)
	}
	for p := uint64(1); p <= 3; p++ {
		if tlb.Cached(1, p) {
			t.Errorf("page %d still cached after range invalidation", p)
		}
		if !tlb.Cached(2, p) {
			t.Errorf("device 2 page %d dropped by device 1 invalidation", p)
		}
	}
	if !tlb.Cached(1, 0) {
		t.Error("page outside the range was dropped")
	}

	// Range >= sets: full-scan path, same observable behavior.
	load()
	inv = tlb.Invalidations
	tlb.InvalidatePages(1, 0, 8)
	if got := tlb.Invalidations - inv; got != 1 {
		t.Errorf("large-range invalidation counted %d times", got)
	}
	for p := uint64(0); p < 8; p++ {
		if tlb.Cached(1, p) {
			t.Errorf("page %d survived large-range invalidation", p)
		}
	}

	// Whole-device invalidation.
	load()
	inv = tlb.Invalidations
	tlb.InvalidateDevice(2)
	if got := tlb.Invalidations - inv; got != 1 {
		t.Errorf("device invalidation counted %d times", got)
	}
	for p := uint64(0); p < 8; p++ {
		if tlb.Cached(2, p) {
			t.Errorf("device 2 page %d survived device invalidation", p)
		}
		if !tlb.Cached(1, p) {
			t.Errorf("device 1 page %d dropped by device 2 invalidation", p)
		}
	}
}

func TestInvQueueAsyncCompletion(t *testing.T) {
	eng, m, u := setup()
	c := cycles.Default()
	phys, _ := m.AllocPages(0, 1)
	iova := IOVA(0x8000)
	if err := u.Map(1, iova, phys, mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	u.Translate(1, iova, PermRead) // cache it
	var doneAt, submitAt uint64
	eng.Spawn("core0", 0, 0, func(p *sim.Proc) {
		u.Queue.Lock.Lock(p)
		submitAt = p.Now()
		doneAt = u.Queue.SubmitPages(p, 1, iova.Page(), 1)
		u.Queue.Lock.Unlock(p)
		// Invalidation is asynchronous: entry still cached right after
		// submission.
		if !u.TLB().Cached(1, iova.Page()) {
			t.Error("entry invalidated synchronously")
		}
	})
	eng.Run(10_000_000)
	if doneAt < submitAt+c.IOTLBInvalidateHW {
		t.Errorf("completion %d too early (submit %d)", doneAt, submitAt)
	}
	if u.TLB().Cached(1, iova.Page()) {
		t.Error("entry should be invalidated after hw processes the command")
	}
	if u.Queue.Submitted != 1 || u.Queue.Completed != 1 {
		t.Errorf("queue stats: %d/%d", u.Queue.Submitted, u.Queue.Completed)
	}
}

func TestInvQueueSerializesHardware(t *testing.T) {
	eng, _, u := setup()
	c := cycles.Default()
	var times []uint64
	eng.Spawn("core0", 0, 0, func(p *sim.Proc) {
		u.Queue.Lock.Lock(p)
		for i := 0; i < 3; i++ {
			times = append(times, u.Queue.SubmitGlobal(p))
		}
		u.Queue.Lock.Unlock(p)
	})
	eng.Run(100_000_000)
	// Hardware processes commands serially: completions must be spaced
	// by at least the hw invalidation latency.
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1]+c.IOTLBInvalidateHW {
			t.Errorf("completions not serialized: %v", times)
		}
	}
}

func TestStrictWaitAccountsBusySpin(t *testing.T) {
	eng, m, u := setup()
	phys, _ := m.AllocPages(0, 1)
	if err := u.Map(1, 0x6000, phys, 100, PermRW); err != nil {
		t.Fatal(err)
	}
	var p0 *sim.Proc
	p0 = eng.Spawn("core0", 0, 0, func(p *sim.Proc) {
		u.Queue.Lock.Lock(p)
		done := u.Queue.SubmitPages(p, 1, 6, 1)
		u.Queue.WaitFor(p, done)
		u.Queue.Lock.Unlock(p)
	})
	eng.Run(10_000_000)
	inval := p0.TaggedCycles(cycles.TagInvalidate)
	c := cycles.Default()
	if inval < c.IOTLBInvalidateHW {
		t.Errorf("invalidation spin = %d, want >= %d", inval, c.IOTLBInvalidateHW)
	}
}

func TestTraceRecordsIOMMUEvents(t *testing.T) {
	eng, m, u := setup()
	var events []Event
	u.OnEvent = func(e Event) { events = append(events, e) }
	phys, _ := m.AllocPages(0, 1)
	if err := u.Map(1, 0x9000, phys, 100, PermRead); err != nil {
		t.Fatal(err)
	}
	u.Translate(1, 0x9000, PermWrite) // fault
	if err := u.Unmap(1, 0x9000, 100); err != nil {
		t.Fatal(err)
	}
	eng.Spawn("c", 0, 0, func(p *sim.Proc) {
		u.Queue.Lock.Lock(p)
		u.Queue.SubmitGlobal(p)
		u.Queue.Lock.Unlock(p)
	})
	eng.Run(1 << 30)
	eng.Stop()
	cats := map[string]int{}
	for _, e := range events {
		cats[e.Kind.Category()]++
	}
	for _, want := range []string{"map", "unmap", "fault", "inval"} {
		if cats[want] == 0 {
			t.Errorf("no %q events recorded (got %v)", want, cats)
		}
	}
	if want := (Event{Kind: EventMap, Dev: 1, IOVA: 0x9000, Phys: phys, Size: 100, Perm: PermRead}); events[0] != want {
		t.Errorf("map event = %+v, want %+v", events[0], want)
	}
	if got := events[2].String(); got != "dev 1 iova 0x9000 size 100" {
		t.Errorf("unmap event renders %q", got)
	}
}

// TestEventString pins each kind's rendering: the text of the
// intel-iommu-style trace lines and of the Chrome trace's msg arg.
func TestEventString(t *testing.T) {
	for _, c := range []struct {
		e    Event
		cat  string
		want string
	}{
		{Event{Kind: EventMap, Dev: 1, IOVA: 0x7000, Phys: 0x2010, Size: 4096, Perm: PermWrite},
			"map", "dev 1 iova 0x7000 -> phys 0x2010 size 4096 perm w"},
		{Event{Kind: EventUnmap, Dev: 1, IOVA: 0x7000, Size: 4096}, "unmap", "dev 1 iova 0x7000 size 4096"},
		{Event{Kind: EventFault, Dev: 2, IOVA: 0x3000, Perm: PermRead, Reason: "not present"},
			"fault", "dev 2 iova 0x3000 want r: not present"},
		{Event{Kind: EventBlock, Dev: 3}, "fault", "dev 3 blocked (quarantine)"},
		{Event{Kind: EventUnblock, Dev: 3}, "fault", "dev 3 unblocked (readmitted)"},
		{Event{Kind: EventDetach, Dev: 3}, "unmap", "dev 3 detached (hot-unplug)"},
		{Event{Kind: EventWipe, Dev: 3, Arg: 12}, "unmap", "dev 3 domain wiped (12 pages)"},
		{Event{Kind: EventInval, Arg: 2212}, "inval", "submitted, hw completes at 2212"},
		{Event{Kind: EventInvalTimeout, Arg: 9344}, "inval", "ITE: completion 9344 still pending"},
		{Event{Kind: EventInvalRecover}, "inval", "IQE/ITE recovery: queue drained, global invalidate"},
	} {
		if got := c.e.String(); got != c.want {
			t.Errorf("%+v renders %q, want %q", c.e, got, c.want)
		}
		if got := c.e.Kind.Category(); got != c.cat {
			t.Errorf("kind %d category %q, want %q", c.e.Kind, got, c.cat)
		}
	}
}

// TestEventTakesRunningProcClock: an event caused by a proc carries that
// proc's clock, which runs ahead of the engine's between yields; one
// raised from an engine callback carries the engine's time.
func TestEventTakesRunningProcClock(t *testing.T) {
	eng, m, u := setup()
	var events []Event
	u.OnEvent = func(e Event) { events = append(events, e) }
	phys, _ := m.AllocPages(0, 1)
	var mapAt uint64
	eng.Spawn("c", 0, 0, func(p *sim.Proc) {
		p.Charge("sw", 1000)
		mapAt = p.Now()
		if err := u.Map(1, 0x9000, phys, 100, PermRead); err != nil {
			t.Error(err)
		}
	})
	eng.Schedule(5000, func(uint64) { u.Translate(2, 0x9000, PermRead) }) // fault: no domain
	eng.Run(1 << 30)
	eng.Stop()
	if len(events) != 2 || events[0].Kind != EventMap || events[1].Kind != EventFault {
		t.Fatalf("events = %+v, want a map then a fault", events)
	}
	if mapAt != 1000 || events[0].At != mapAt {
		t.Errorf("map event at %d, want the proc's clock %d (1000)", events[0].At, mapAt)
	}
	if events[1].At != 5000 {
		t.Errorf("callback fault event at %d, want the engine's time 5000", events[1].At)
	}
}
