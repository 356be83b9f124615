package dmafuzz

import (
	"bytes"
	"strings"
	"testing"
)

// staleWrite is the security oracle's violation for a stale-IOVA device
// write that reached OS memory on a backend with no declared window.
const staleWrite = "stale-IOVA device writes reached OS memory"

// violated reports whether any of rep's failures is a security-oracle
// violation containing want.
func violated(rep *Report, want string) bool {
	for _, f := range rep.Failures() {
		if strings.Contains(f, "security: ") && strings.Contains(f, want) {
			return true
		}
	}
	return false
}

// TestBenignTracesPassAllOracles is the harness's core claim: for benign
// generated traces, every backend passes the differential, security, and
// resource oracles — and the security oracle's positive-observation
// requirements are actually exercised, not vacuously satisfied.
func TestBenignTracesPassAllOracles(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rep, err := Run(Config{Seed: seed, NumOps: 150})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Failed() {
			t.Fatalf("seed %d failed:\n%v", seed, rep.Failures())
		}
		for _, br := range rep.Backends {
			if br.Security.StaleProbes == 0 {
				t.Errorf("seed %d/%s: no stale probes ran — generator regressed", seed, br.Backend)
			}
			if br.Security.SubPageEligible == 0 {
				t.Errorf("seed %d/%s: no eligible sub-page probes", seed, br.Backend)
			}
			if br.Security.ArbitraryProbes == 0 || br.Security.ProberReads == 0 {
				t.Errorf("seed %d/%s: arbitrary probes missing", seed, br.Backend)
			}
			if br.Security.FinalProbes == 0 {
				t.Errorf("seed %d/%s: no teardown containment probes ran", seed, br.Backend)
			}
		}
	}
}

// TestRunIsDeterministic: two runs of the same config must produce
// byte-identical JSON reports (the acceptance bar for replayability).
func TestRunIsDeterministic(t *testing.T) {
	var out [2][]byte
	for i := range out {
		rep, err := Run(Config{Seed: 7, NumOps: 120})
		if err != nil {
			t.Fatal(err)
		}
		j, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = j
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Fatal("two runs of the same seed produced different JSON reports")
	}
}

// TestWindowsObservedWherePredicted pins the paper's vulnerability-window
// table: deferred designs exhibit the stale-IOVA window, strict designs
// don't, zero-copy designs leak sub-page siblings, copying designs leak
// nothing, and swiotlb grants arbitrary access.
func TestWindowsObservedWherePredicted(t *testing.T) {
	rep, err := Run(Config{Seed: 2, NumOps: 200})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("benign run failed:\n%v", rep.Failures())
	}
	bySec := map[string]SecuritySummary{}
	for _, br := range rep.Backends {
		bySec[br.Backend] = br.Security
	}
	for _, b := range []string{"defer", "identity-", "selfinval"} {
		if bySec[b].StaleObserved == 0 {
			t.Errorf("%s: deferred window not observed", b)
		}
	}
	for _, b := range []string{"strict", "identity+", "copy", "copy-hybrid", "swiotlb"} {
		if bySec[b].StaleObserved != 0 {
			t.Errorf("%s: unexpected stale window (%d)", b, bySec[b].StaleObserved)
		}
	}
	for _, b := range []string{"strict", "defer", "identity+", "identity-", "selfinval"} {
		if bySec[b].SubPageObserved == 0 {
			t.Errorf("%s: sub-page leak not observed", b)
		}
	}
	for _, b := range []string{"copy", "copy-hybrid", "swiotlb"} {
		if bySec[b].SubPageObserved != 0 {
			t.Errorf("%s: unexpected sub-page leak", b)
		}
	}
	if bySec["swiotlb"].ProberLeaks == 0 && bySec["swiotlb"].ArbitraryLeaks == 0 {
		t.Error("swiotlb: arbitrary access not observed")
	}
}

// TestInjectedBugCaughtAndMinimized reintroduces the deferred-window bug
// into the strict backend (unmap skips IOTLB invalidation), and requires
// the harness to (a) catch it and (b) minimize the failing trace to a
// replayable repro of at most 10 ops.
func TestInjectedBugCaughtAndMinimized(t *testing.T) {
	plan := FaultPlan{SkipInval: true}
	backends := []string{"strict"}
	tr := Generate(1, 200)
	rep, err := RunTrace(tr, backends, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !violated(rep, staleWrite) {
		t.Fatalf("security oracle missed the reintroduced strict-unmap bug:\n%v", rep.Failures())
	}

	min, runs, err := Minimize(tr, backends, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("minimized %d -> %d ops in %d oracle runs", len(tr.Ops), len(min.Ops), runs)
	if len(min.Ops) > 10 {
		t.Fatalf("minimized trace has %d ops, want <= 10", len(min.Ops))
	}

	// The minimized trace must still fail, and must survive a repro-file
	// round trip byte-for-byte.
	blob, err := min.MarshalRepro()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalRepro(blob)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := RunTrace(back, backends, plan)
	if err != nil {
		t.Fatal(err)
	}
	// A minimized trace need not keep a probe op; the window may then
	// show only in the teardown containment probes.
	if !violated(rep2, "reached OS memory") {
		t.Fatalf("replayed minimized trace no longer shows the stale window:\n%v", rep2.Failures())
	}

	// The fixed code must pass the very same trace.
	rep3, err := RunTrace(back, backends, FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Failed() {
		t.Fatalf("minimized trace fails even without the bug:\n%v", rep3.Failures())
	}
}

// TestInjectedSpillBugCaught reintroduces the second bug: copy-degraded's
// spill unmaps skip the strict invalidation. Its declared profile (copy's)
// leaves no window, so the security oracle must report the stale write;
// without the bug the same trace passes.
func TestInjectedSpillBugCaught(t *testing.T) {
	backends := []string{"copy-degraded"}
	tr := Generate(1, 200)
	rep, err := RunTrace(tr, backends, FaultPlan{SpillNoInval: true})
	if err != nil {
		t.Fatal(err)
	}
	if !violated(rep, staleWrite) {
		t.Fatalf("security oracle missed the reintroduced spill-unmap bug:\n%v", rep.Failures())
	}
	rep, err = RunTrace(tr, backends, FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("copy-degraded fails without the bug:\n%v", rep.Failures())
	}
}

// TestUnknownBackendRejected: only names in Backends run. "no iommu" is a
// design in bench.Designs but tracks no mappings, so no oracle applies.
func TestUnknownBackendRejected(t *testing.T) {
	for _, name := range []string{"no iommu", "strictt"} {
		if _, err := RunTrace(Generate(1, 10), []string{name}, FaultPlan{}); err == nil {
			t.Errorf("backend %q accepted", name)
		}
	}
}

// TestFaultInjectionInvariantsHold: with allocation failures injected,
// error paths must neither leak resources nor widen device authority.
func TestFaultInjectionAllocFail(t *testing.T) {
	rep, err := Run(Config{Seed: 5, NumOps: 150, Plan: FaultPlan{AllocFailEvery: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("alloc-fail run violated invariants:\n%v", rep.Failures())
	}
}

// TestFaultInjectionInvQueueStall: a stalled invalidation queue widens
// windows but must not break any invariant (strict still blocks until
// completion; deferred windows stay windows).
func TestFaultInjectionInvQueueStall(t *testing.T) {
	rep, err := Run(Config{Seed: 3, NumOps: 120, Plan: FaultPlan{StallCycles: 50000}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("stall run violated invariants:\n%v", rep.Failures())
	}
}

// TestTraceCodecRoundTrip covers both the binary corpus format and the
// JSON repro format.
func TestTraceCodecRoundTrip(t *testing.T) {
	tr := Generate(11, 64)
	dec, err := DecodeTrace(tr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Seed != tr.Seed || len(dec.Ops) != len(tr.Ops) {
		t.Fatalf("binary round trip mangled trace: %d/%d ops", len(dec.Ops), len(tr.Ops))
	}
	for i := range tr.Ops {
		if tr.Ops[i] != dec.Ops[i] {
			t.Fatalf("op %d mangled: %+v vs %+v", i, tr.Ops[i], dec.Ops[i])
		}
	}
	if _, err := DecodeTrace([]byte("junk")); err == nil {
		t.Fatal("junk accepted as trace")
	}
	blob, err := tr.MarshalRepro()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalRepro(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Ops) != len(tr.Ops) {
		t.Fatal("JSON round trip lost ops")
	}
}

// TestGenerateDeterministic: the generator is a pure function of
// (seed, n).
func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(42, 300), Generate(42, 300)
	if len(a.Ops) != len(b.Ops) {
		t.Fatal("lengths differ")
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatalf("op %d differs", i)
		}
	}
	if len(a.Ops) != 300 {
		t.Fatalf("got %d ops, want 300", len(a.Ops))
	}
}
