package tenant

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/cycles"
	"repro/internal/iommu"
)

// TestIsolationMatrixCells pins the acceptance matrix cell by cell:
// both protection schemes contain every hostile program (zero sentinel
// corruption, violations observed, hostile quarantined) while the
// unprotected baseline loses every cell — silently, with no violations
// to observe.
func TestIsolationMatrixCells(t *testing.T) {
	_, results, err := Matrix(MatrixConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		name := r.Attack + "/" + r.Scheme
		switch r.Scheme {
		case SchemeUnprotected:
			if !r.Breached {
				t.Errorf("%s: want BREACH, got contained", name)
			}
			if r.Metrics["corrupted_bytes"] == 0 {
				t.Errorf("%s: breach with no corrupted bytes", name)
			}
			if r.Metrics["violations"] != 0 {
				// Nothing validates descriptors here; a "violation"
				// would mean the baseline grew an arbiter by accident.
				t.Errorf("%s: unprotected observed %v violations", name, r.Metrics["violations"])
			}
		case SchemeCapability, SchemeShadowCopy:
			if r.Breached {
				t.Errorf("%s: want contained, got BREACH (%v corrupted bytes)",
					name, r.Metrics["corrupted_bytes"])
			}
			if r.Metrics["corrupted_bytes"] != 0 {
				t.Errorf("%s: corrupted_bytes = %v, want 0", name, r.Metrics["corrupted_bytes"])
			}
			if r.Metrics["violations"] == 0 {
				t.Errorf("%s: hostile program produced no violations", name)
			}
			if r.Metrics["quarantines"] < 1 {
				t.Errorf("%s: hostile tenant never quarantined", name)
			}
		}
		// Isolation must not cost the benign tenants their datapath: at
		// MTU frames every scheme should hold most of its 3/4 wire share.
		if g := r.Metrics["goodput_gbps"]; g < 25 {
			t.Errorf("%s: benign goodput %.1f Gb/s, want >= 25", name, g)
		}
	}
}

// TestQuarantineIsTenantGranular checks the resilience reuse: the
// hostile tenant's pseudo device is blocked, the shared NIC is not, and
// the victim keeps receiving.
func TestQuarantineIsTenantGranular(t *testing.T) {
	m, err := NewMachine(Config{
		Scheme: SchemeCapability, Attack: AttackScan, Tenants: 4, WindowMs: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	if !m.U.Blocked(tenantDev(0)) && m.Sup.Stats(tenantDev(0)).Quarantines == 0 {
		t.Fatalf("hostile tenant was never quarantined")
	}
	if m.U.Blocked(nicDev) {
		t.Fatalf("shared NIC quarantined: tenant fault bled into device fault domain")
	}
	for _, tt := range m.tenants[1:] {
		if m.U.Blocked(tenantDev(tt.ID)) {
			t.Errorf("benign tenant %d quarantined", tt.ID)
		}
		if tt.Stats.Frames == 0 {
			t.Errorf("benign tenant %d starved (0 frames)", tt.ID)
		}
	}
	if h := m.tenants[0]; h.Stats.BlockDrops == 0 {
		t.Errorf("no hostile frames were dropped at the root post-quarantine")
	}
}

// TestReplayRevocation checks the capability-scheme revocation
// machinery directly: after revoke, the stale descriptor fails both the
// epoch check and (defense in depth) translation.
func TestReplayRevocation(t *testing.T) {
	m, err := NewMachine(Config{
		Scheme: SchemeCapability, Attack: AttackReplay, Tenants: 2, WindowMs: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := m.tenants[0]
	if len(h.grants) != 2 {
		t.Fatalf("replay setup: hostile has %d grants, want 2", len(h.grants))
	}
	scratch := h.grants[1]
	epoch0 := scratch.Epoch
	m.Run()
	if scratch.Live {
		t.Errorf("scratch grant still live after revocation")
	}
	if scratch.Epoch == epoch0 {
		t.Errorf("revocation did not bump the grant epoch")
	}
	if m.spill.Size == 0 {
		t.Fatalf("revoked page was not reused for victim data")
	}
	if _, _, f := m.U.Translate(nicDev, iommu.IOVA(m.replayed.Addr), iommu.PermWrite); f == nil {
		t.Errorf("stale window still translates after revoke")
	}
	if _, bytes := m.VictimCorruption(); bytes != 0 {
		t.Errorf("replayed descriptor corrupted %d bytes of reused memory", bytes)
	}
	if h.Stats.Frames == 0 {
		t.Errorf("pre-revocation deliveries should have landed legitimately")
	}
}

// TestSweepAtScale runs one 1024-queue point per protected scheme: the
// isolation verdict must hold at three orders of magnitude more tenants
// than the matrix cells, with per-tenant quarantine still O(1).
func TestSweepAtScale(t *testing.T) {
	for _, scheme := range []string{SchemeCapability, SchemeShadowCopy} {
		m, err := NewMachine(Config{
			Scheme: scheme, Attack: AttackOverrun, Tenants: 1024,
			WindowMs: 1, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
		r := m.Collect()
		if r.Breached {
			t.Errorf("%s: breached at 1024 tenants", scheme)
		}
		if r.Metrics["quarantines"] < 1 {
			t.Errorf("%s: hostile not quarantined at 1024 tenants", scheme)
		}
		if r.Metrics["goodput_gbps"] < 25 {
			t.Errorf("%s: goodput %.1f at 1024 tenants, want >= 25", scheme, r.Metrics["goodput_gbps"])
		}
	}
}

// TestAdjacency pins the physical layout the ring-overrun program
// depends on: tenant i's region ends exactly where tenant i+1's
// sentinel page begins.
func TestAdjacency(t *testing.T) {
	m, err := NewMachine(Config{Scheme: SchemeShadowCopy, Tenants: 8, WindowMs: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { m.Run() }() // drain the engine cleanly
	for i := 0; i < 7; i++ {
		if m.tenants[i].Region.End() != m.tenants[i+1].Private.Addr {
			t.Fatalf("tenant %d region end %#x != tenant %d private %#x",
				i, m.tenants[i].Region.End(), i+1, m.tenants[i+1].Private.Addr)
		}
	}
}

// TestFramesLargerThanDefaultBufferAreWhole: a benign frame delivers all
// FrameSize bytes under every scheme, including frames larger than the
// 2048-byte default receive buffer.
func TestFramesLargerThanDefaultBufferAreWhole(t *testing.T) {
	for _, scheme := range Schemes() {
		for _, frame := range []int{1500, 4096, MaxFrameSize} {
			m, err := NewMachine(Config{Scheme: scheme, Tenants: 4, WindowMs: 0.2, FrameSize: frame})
			if err != nil {
				t.Fatal(err)
			}
			m.Run()
			var frames, bytes uint64
			for _, tn := range m.benign {
				frames += tn.Stats.Frames
				bytes += tn.Stats.Bytes
			}
			if frames == 0 || bytes != frames*uint64(frame) {
				t.Errorf("%s/%dB: %d frames delivered %d bytes, want %d per frame",
					scheme, frame, frames, bytes, frame)
			}
		}
	}
}

// TestDpQueueRing: completions leave a datapath queue in arrival order
// across the ring's wrap and while it grows wrapped, and a steady
// push/pop cycle allocates nothing.
func TestDpQueueRing(t *testing.T) {
	var q dpQueue
	next, want := 0, 0
	push := func(k int) {
		for i := 0; i < k; i++ {
			q.push(dpJob{n: next})
			next++
		}
	}
	pop := func(k int) {
		for i := 0; i < k; i++ {
			if j := q.pop(); j.n != want {
				t.Fatalf("popped job %d, want %d", j.n, want)
			}
			want++
		}
	}
	push(10)
	pop(7)
	push(12) // wraps the 16-slot ring
	push(5)  // grows it while wrapped
	pop(q.n)
	if q.n != 0 || want != next {
		t.Fatalf("%d jobs left, %d of %d popped", q.n, want, next)
	}
	if n := testing.AllocsPerRun(100, func() { push(8); pop(8) }); n != 0 {
		t.Errorf("a steady push/pop cycle allocates %v times", n)
	}
}

// TestSteadyDatapathAllocatesNothing runs each scheme's benign machine
// past its warm-up, then checks that more frames delivered and
// completed allocate nothing: a completion's engine event is a recycled
// carrier, not a closure per frame.
func TestSteadyDatapathAllocatesNothing(t *testing.T) {
	for _, scheme := range Schemes() {
		m, err := NewMachine(Config{Scheme: scheme, Tenants: 4, WindowMs: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		m.startIngress()
		until := cycles.FromMicros(50)
		m.Eng.Run(until)
		var frames uint64
		allocs := testing.AllocsPerRun(20, func() {
			until += cycles.FromMicros(5)
			before := m.benign[0].Stats.Frames
			m.Eng.Run(until)
			frames += m.benign[0].Stats.Frames - before
		})
		m.Eng.Stop()
		if frames == 0 {
			t.Errorf("%s: no frames completed in the measured windows", scheme)
		}
		if allocs != 0 {
			t.Errorf("%s: a steady 5 µs window of frames allocates %v times", scheme, allocs)
		}
		m.Mem.Release()
	}
}

// TestVictimCorruptionAllocatesNothing: the sentinel audit reads each
// private page into one reused buffer, and still counts a corrupted
// byte.
func TestVictimCorruptionAllocatesNothing(t *testing.T) {
	m, err := NewMachine(Config{Scheme: SchemeCapability, Tenants: 64, WindowMs: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	if n := testing.AllocsPerRun(10, func() { m.VictimCorruption() }); n != 0 {
		t.Errorf("VictimCorruption allocates %v times", n)
	}
	if tenants, bytes := m.VictimCorruption(); tenants != 0 || bytes != 0 {
		t.Fatalf("an idle machine audits %d corrupted bytes in %d tenants", bytes, tenants)
	}
	victim := m.benign[5]
	if err := m.Mem.Write(victim.Private.Addr+100, []byte{^campaign.SentinelByte(victim.ID), 0}); err != nil {
		t.Fatal(err)
	}
	if tenants, bytes := m.VictimCorruption(); tenants != 1 || bytes != 2 {
		t.Errorf("two overwritten bytes audit as %d bytes in %d tenants, want 2 in 1", bytes, tenants)
	}
	m.Mem.Release()
}
