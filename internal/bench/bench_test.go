package bench

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/cycles"
)

// These tests assert the SHAPE of the paper's results — who wins, by
// roughly what factor, where the crossovers are — not absolute numbers
// (DESIGN.md §2). Windows are short to keep the suite fast; the cmd/
// binaries run the full-length versions.

func run(t *testing.T, sys string, dir Direction, cores, msg int, windowMs float64) Result {
	t.Helper()
	cfg := DefaultConfig(sys, dir, cores, msg)
	cfg.WindowMs = windowMs
	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s/%v/%dc/%d: %v", sys, dir, cores, msg, err)
	}
	return r
}

func TestFig3ShapeSingleCoreRx(t *testing.T) {
	no := run(t, SysNoIOMMU, RX, 1, 16384, 6)
	cp := run(t, SysCopy, RX, 1, 16384, 6)
	idm := run(t, SysIdentityDefer, RX, 1, 16384, 6)
	idp := run(t, SysIdentityStrict, RX, 1, 16384, 6)

	// Paper: copy obtains 0.76x of no iommu.
	if rel := cp.Gbps / no.Gbps; rel < 0.65 || rel > 0.95 {
		t.Errorf("copy/noiommu = %.2f, want ~0.76", rel)
	}
	// Paper: copy is the best performer after no iommu, outperforming
	// identity- despite stronger protection.
	if cp.Gbps < idm.Gbps {
		t.Errorf("copy (%.1f) should beat identity- (%.1f)", cp.Gbps, idm.Gbps)
	}
	// Paper: copy obtains 2x the throughput of identity+.
	if ratio := cp.Gbps / idp.Gbps; ratio < 1.5 || ratio > 2.8 {
		t.Errorf("copy/identity+ = %.2f, want ~2", ratio)
	}
	// Receiver-bound regime: everyone is CPU saturated.
	for _, r := range []Result{no, cp, idm, idp} {
		if r.CPUPct < 95 {
			t.Errorf("%s CPU = %.0f%%, want saturation", r.Config.System, r.CPUPct)
		}
	}
}

func TestFig3SmallMessagesSenderLimited(t *testing.T) {
	// Paper: for small messages all systems obtain the same throughput
	// (the sender's syscall rate is the bottleneck) and overheads show
	// up as CPU instead.
	no := run(t, SysNoIOMMU, RX, 1, 256, 6)
	cp := run(t, SysCopy, RX, 1, 256, 6)
	if rel := cp.Gbps / no.Gbps; rel < 0.9 || rel > 1.1 {
		t.Errorf("small-message throughput should match: copy/noiommu = %.2f", rel)
	}
	if no.CPUPct > 95 {
		t.Errorf("no-iommu should not be CPU bound at 256B (%.0f%%)", no.CPUPct)
	}
	if cp.CPUPct <= no.CPUPct {
		t.Errorf("copy CPU (%.0f%%) should exceed no-iommu (%.0f%%)", cp.CPUPct, no.CPUPct)
	}
}

func TestFig4ShapeSingleCoreTx(t *testing.T) {
	no := run(t, SysNoIOMMU, TX, 1, 65536, 6)
	cp := run(t, SysCopy, TX, 1, 65536, 6)
	idp := run(t, SysIdentityStrict, TX, 1, 65536, 6)

	// Paper: with TSO, copy must copy 64 KiB buffers and becomes the
	// only design pegged at 100% CPU, 10-20% below the others.
	if cp.CPUPct < 99 {
		t.Errorf("copy TX CPU = %.0f%%, want 100%%", cp.CPUPct)
	}
	if idp.CPUPct > 98 {
		t.Errorf("identity+ TX should not be CPU bound at 64KB (%.0f%%)", idp.CPUPct)
	}
	rel := cp.Gbps / no.Gbps
	if rel < 0.7 || rel > 0.95 {
		t.Errorf("copy/noiommu TX = %.2f, want 0.8-0.9", rel)
	}
	if cp.Gbps >= idp.Gbps {
		t.Errorf("at 64KB TX cache pollution should tip the scale to identity+ (copy %.1f vs %.1f)", cp.Gbps, idp.Gbps)
	}
}

// TestBreakdownTotalIsOrderedComponentSum pins total_us to the sum over
// cycles.Components in order, bit for bit: a sum in map iteration order
// varies in the last bit from run to run.
func TestBreakdownTotalIsOrderedComponentSum(t *testing.T) {
	tb, flat, err := Breakdown(RX, 1, Options{WindowMs: 0.5, Systems: []string{SysCopy, SysIdentityStrict}})
	if err != nil || len(tb.Series) != 2 {
		t.Fatalf("Breakdown: %d series, %v", len(tb.Series), err)
	}
	for _, ser := range tb.Series {
		perOp := flat[ser.System].PerOp
		want := 0.0
		for _, comp := range cycles.Components {
			want += perOp[comp]
		}
		for k := range perOp {
			if !slices.Contains(cycles.Components, k) {
				t.Errorf("%s: PerOp key %q is not a breakdown component", ser.System, k)
			}
		}
		if got := ser.Points[0].Metrics["total_us"]; got != want {
			t.Errorf("%s: total_us = %v, want ordered component sum %v", ser.System, got, want)
		}
	}
}

func TestFig5BreakdownMicrocosts(t *testing.T) {
	cp := run(t, SysCopy, RX, 1, 65536, 6)
	idp := run(t, SysIdentityStrict, RX, 1, 65536, 6)
	idm := run(t, SysIdentityDefer, RX, 1, 65536, 6)

	// Paper Fig 5a: copy spends ~0.11us on memcpy and ~0.02us on shadow
	// management per 1500B packet.
	if v := cp.PerOp[cycles.TagMemcpy]; v < 0.08 || v > 0.18 {
		t.Errorf("copy memcpy = %.3fus, want ~0.11", v)
	}
	if v := cp.PerOp[cycles.TagCopyMgmt]; v < 0.01 || v > 0.06 {
		t.Errorf("copy mgmt = %.3fus, want ~0.02", v)
	}
	// Copy never invalidates.
	if v := cp.PerOp[cycles.TagInvalidate]; v != 0 {
		t.Errorf("copy invalidation = %.3fus, want 0", v)
	}
	// Paper: identity+ spends ~0.61us invalidating; identity- ~none.
	if v := idp.PerOp[cycles.TagInvalidate]; v < 0.5 || v > 0.85 {
		t.Errorf("identity+ invalidation = %.3fus, want ~0.61", v)
	}
	if v := idm.PerOp[cycles.TagInvalidate]; v > 0.05 {
		t.Errorf("identity- invalidation = %.3fus, want ~0", v)
	}
	// Paper: page-table management costs both identities ~0.17us.
	for _, r := range []Result{idp, idm} {
		if v := r.PerOp[cycles.TagPTMgmt]; v < 0.12 || v > 0.25 {
			t.Errorf("%s pt mgmt = %.3fus, want ~0.17", r.Config.System, v)
		}
	}
	// Copy's memcpy is ~5.5x cheaper than identity+'s invalidation.
	ratio := idp.PerOp[cycles.TagInvalidate] / cp.PerOp[cycles.TagMemcpy]
	if ratio < 3.5 || ratio > 8 {
		t.Errorf("invalidation/memcpy = %.1f, want ~5.5", ratio)
	}
}

func TestFig6ShapeMultiCoreRx(t *testing.T) {
	no := run(t, SysNoIOMMU, RX, 16, 16384, 6)
	cp := run(t, SysCopy, RX, 16, 16384, 6)
	idm := run(t, SysIdentityDefer, RX, 16, 16384, 6)
	idp := run(t, SysIdentityStrict, RX, 16, 16384, 6)

	// Paper: identity+ obtains ~5x worse throughput than the others,
	// which are comparable among themselves (wire rate).
	for _, r := range []Result{no, cp, idm} {
		if r.Gbps < 34 {
			t.Errorf("%s 16-core RX = %.1f Gb/s, want ~wire rate", r.Config.System, r.Gbps)
		}
	}
	if ratio := cp.Gbps / idp.Gbps; ratio < 3.5 {
		t.Errorf("copy/identity+ 16-core = %.1fx, want ~5x", ratio)
	}
	// identity+ is the only design at 100% CPU.
	if idp.CPUPct < 95 {
		t.Errorf("identity+ CPU = %.0f%%, want saturation", idp.CPUPct)
	}
	// Copy's CPU overhead vs no-iommu is bounded (paper: up to 60%).
	if cp.CPUPct > no.CPUPct*2.2 {
		t.Errorf("copy CPU %.0f%% vs noiommu %.0f%%: overhead too large", cp.CPUPct, no.CPUPct)
	}
}

func TestFig7ShapeMultiCoreTx(t *testing.T) {
	// Small messages: identity+ ~5x worse.
	noS := run(t, SysNoIOMMU, TX, 16, 1024, 5)
	idpS := run(t, SysIdentityStrict, TX, 16, 1024, 5)
	if ratio := noS.Gbps / idpS.Gbps; ratio < 3 {
		t.Errorf("small-message TX collapse = %.1fx, want >=3x", ratio)
	}
	// Large messages: the gap closes (TSO lowers the packet rate).
	noL := run(t, SysNoIOMMU, TX, 16, 65536, 5)
	idpL := run(t, SysIdentityStrict, TX, 16, 65536, 5)
	if rel := idpL.Gbps / noL.Gbps; rel < 0.8 {
		t.Errorf("identity+ should close the TX gap at 64KB: %.2f", rel)
	}
}

func TestFig8SpinlockDominatesStrictMulticore(t *testing.T) {
	idp := run(t, SysIdentityStrict, RX, 16, 65536, 6)
	cp := run(t, SysCopy, RX, 16, 65536, 6)
	// Paper Fig 8a: identity+ suffers tens of microseconds of IOTLB-lock
	// spinning per packet; copy has (almost) none.
	if v := idp.PerOp[cycles.TagSpinlock]; v < 3 {
		t.Errorf("identity+ 16-core spinlock = %.1fus/pkt, want >> 1us", v)
	}
	if v := cp.PerOp[cycles.TagSpinlock]; v > 0.5 {
		t.Errorf("copy 16-core spinlock = %.2fus/pkt, want ~0", v)
	}
}

func TestFig9LatencyShape(t *testing.T) {
	res := map[string]map[int]Result{}
	for _, sys := range FigureSystems {
		res[sys] = map[int]Result{}
		for _, sz := range []int{64, 65536} {
			res[sys][sz] = run(t, sys, RR, 1, sz, 8)
		}
	}
	base := res[SysNoIOMMU]
	// Paper: all designs obtain comparable latency to no iommu.
	for _, sys := range FigureSystems {
		for _, sz := range []int{64, 65536} {
			rel := res[sys][sz].LatencyUs / base[sz].LatencyUs
			if rel > 2.0 {
				t.Errorf("%s latency at %d = %.1fx no-iommu, want comparable", sys, sz, rel)
			}
		}
	}
	// Paper: 1024x larger messages increase latency only ~4x.
	ratio := base[65536].LatencyUs / base[64].LatencyUs
	if ratio < 2.5 || ratio > 12 {
		t.Errorf("latency growth 64B->64KB = %.1fx, want moderate (~4x)", ratio)
	}
	// Overheads show up in CPU: identity+ uses the most.
	if res[SysIdentityStrict][65536].CPUPct <= res[SysNoIOMMU][65536].CPUPct {
		t.Error("identity+ RR should cost more CPU than no-iommu")
	}
}

func TestFig11MemcachedShape(t *testing.T) {
	results := map[string]KVResult{}
	for _, sys := range FigureSystems {
		r, err := RunMemcached(sys, 16, 5)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if r.Errors != 0 {
			t.Errorf("%s: %d protocol errors", sys, r.Errors)
		}
		results[sys] = r
	}
	no := results[SysNoIOMMU].TransactionsPS
	// Paper: copy provides full protection at essentially the same
	// throughput as no iommu (<2% overhead; we allow 10%).
	if rel := results[SysCopy].TransactionsPS / no; rel < 0.9 {
		t.Errorf("copy memcached = %.2fx no-iommu, want ~1", rel)
	}
	// Paper: the good designs obtain 6.6x the throughput of identity+.
	if ratio := no / results[SysIdentityStrict].TransactionsPS; ratio < 4 {
		t.Errorf("noiommu/identity+ memcached = %.1fx, want ~6.6x", ratio)
	}
}

func TestMemoryConsumptionModest(t *testing.T) {
	// Paper §6: < 256 MB of shadow buffers in practice (vs 2.1 GB worst
	// case); RX shadow buffers track in-flight DMAs.
	for _, dir := range []Direction{RX, TX} {
		r := run(t, SysCopy, dir, 16, 65536, 6)
		if r.PoolBytes == 0 {
			t.Errorf("%v: pool empty", dir)
		}
		if r.PoolBytes > 256<<20 {
			t.Errorf("%v: pool = %d MB, want < 256 MB", dir, r.PoolBytes>>20)
		}
	}
}

func TestFig1LinuxBaselines(t *testing.T) {
	// Figure 1 / Table 1 orderings for the stock-Linux baselines.
	strict := run(t, SysLinuxStrict, RX, 16, 16384, 5)
	deferred := run(t, SysLinuxDefer, RX, 16, 16384, 5)
	idm := run(t, SysIdentityDefer, RX, 16, 16384, 5)
	// Linux strict collapses like identity+ (worse, even: IOVA lock too).
	if strict.Gbps > 12 {
		t.Errorf("linux strict 16-core = %.1f Gb/s, should collapse", strict.Gbps)
	}
	// Linux deferred beats strict but trails the scalable identity-.
	if deferred.Gbps <= strict.Gbps {
		t.Errorf("deferred (%.1f) should beat strict (%.1f)", deferred.Gbps, strict.Gbps)
	}
	if deferred.Gbps >= idm.Gbps {
		t.Errorf("identity- (%.1f) should beat linux deferred (%.1f) at 16 cores", idm.Gbps, deferred.Gbps)
	}
}

func TestStorageStudyShape(t *testing.T) {
	// Device-bound regime: throughput equal across systems; protection
	// cost shows as CPU. At 4 KiB copying beats strict invalidation per
	// op; at 64 KiB the full copy is copy's worst point; at 256 KiB the
	// §5.5 hybrid path engages and brings copy back to zero-copy CPU.
	get := func(sys string, sz int) StorageResult {
		r, err := RunStorage(sys, 4, sz, 70, 6)
		if err != nil {
			t.Fatalf("%s/%d: %v", sys, sz, err)
		}
		if r.Errors != 0 {
			t.Fatalf("%s/%d: %d I/O errors", sys, sz, r.Errors)
		}
		return r
	}
	no4 := get(SysNoIOMMU, 4096)
	cp4 := get(SysCopy, 4096)
	idp4 := get(SysIdentityStrict, 4096)
	if rel := cp4.IOPS / no4.IOPS; rel < 0.95 || rel > 1.05 {
		t.Errorf("4K IOPS should be device-bound for all systems: copy/noiommu = %.2f", rel)
	}
	if cp4.CPUPct >= idp4.CPUPct {
		t.Errorf("at 4K, copy CPU (%.1f%%) should undercut identity+ (%.1f%%)", cp4.CPUPct, idp4.CPUPct)
	}
	cp64 := get(SysCopy, 65536)
	cp256 := get(SysCopy, 262144)
	idp256 := get(SysIdentityStrict, 262144)
	if cp256.HybridMaps == 0 {
		t.Error("256K I/O must engage the hybrid path")
	}
	if cp64.HybridMaps != 0 {
		t.Error("64K I/O fits the largest shadow class; no hybrid expected")
	}
	if cp256.CPUPct > idp256.CPUPct*2 {
		t.Errorf("hybrid should keep copy CPU near zero-copy levels: %.1f%% vs %.1f%%",
			cp256.CPUPct, idp256.CPUPct)
	}
	if cp256.CPUPct > cp64.CPUPct {
		t.Errorf("per §5.5, hybrid at 256K (%.1f%%) should cost less CPU than full copies at 64K (%.1f%%)",
			cp256.CPUPct, cp64.CPUPct)
	}
}

func TestExtendedSystemsRun(t *testing.T) {
	for _, sys := range []string{SysSWIOTLB, SysSelfInval} {
		r := run(t, sys, RX, 1, 16384, 4)
		if r.Gbps < 5 {
			t.Errorf("%s RX = %.1f Gb/s, implausibly low", sys, r.Gbps)
		}
	}
	// selfinval performance ~ identity- without flush costs: at least as
	// good as identity- and far better than identity+.
	si := run(t, SysSelfInval, RX, 1, 16384, 4)
	idm := run(t, SysIdentityDefer, RX, 1, 16384, 4)
	idp := run(t, SysIdentityStrict, RX, 1, 16384, 4)
	if si.Gbps < idm.Gbps*0.97 {
		t.Errorf("selfinval (%.1f) should be >= identity- (%.1f)", si.Gbps, idm.Gbps)
	}
	if si.Gbps < idp.Gbps*1.4 {
		t.Errorf("selfinval (%.1f) should easily beat identity+ (%.1f)", si.Gbps, idp.Gbps)
	}
}

func TestNUMAStickinessAblation(t *testing.T) {
	// The pool keeps shadow buffers NUMA-local and sticky (§5.3). Moving
	// the OS buffers to the far domain makes every copy a remote copy;
	// the memcpy component must grow by roughly the remote factor.
	local := run(t, SysCopy, RX, 1, 16384, 5)
	cfg := DefaultConfig(SysCopy, RX, 1, 16384)
	cfg.WindowMs = 5
	cfg.RemoteBufs = true
	remote, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lm, rm := local.PerOp[cycles.TagMemcpy], remote.PerOp[cycles.TagMemcpy]
	if rm < lm*1.2 {
		t.Errorf("remote memcpy %.3fus should exceed local %.3fus by the NUMA factor", rm, lm)
	}
	if remote.Gbps > local.Gbps {
		t.Errorf("remote buffers should not be faster (%.1f vs %.1f)", remote.Gbps, local.Gbps)
	}
}

func TestIOTLBBehaviourPerStrategy(t *testing.T) {
	cp := run(t, SysCopy, RX, 1, 16384, 5)
	idp := run(t, SysIdentityStrict, RX, 1, 16384, 5)
	if cp.Invalidations != 0 {
		t.Errorf("copy submitted %d invalidations", cp.Invalidations)
	}
	if idp.Invalidations == 0 {
		t.Error("identity+ should invalidate per unmap")
	}
	if cp.IOTLBHitRate < 0 || cp.IOTLBHitRate > 1 {
		t.Errorf("hit rate out of range: %f", cp.IOTLBHitRate)
	}
	// Strict invalidation destroys locality: copy's permanently mapped
	// buffers must enjoy a better IOTLB hit rate.
	if cp.IOTLBHitRate <= idp.IOTLBHitRate {
		t.Errorf("copy hit rate %.2f should exceed identity+ %.2f", cp.IOTLBHitRate, idp.IOTLBHitRate)
	}
}

func TestMixedIOInterference(t *testing.T) {
	// The invalidation queue is per-IOMMU, shared by all devices: a busy
	// SSD must degrade identity+'s network throughput (cross-device
	// interference) while copy — which never invalidates — is immune.
	idpAlone, err := RunMixed(SysIdentityStrict, 4, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	idpBoth, err := RunMixed(SysIdentityStrict, 4, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if idpBoth.NetGbps > idpAlone.NetGbps*0.85 {
		t.Errorf("SSD should degrade identity+ networking: %.1f -> %.1f Gb/s",
			idpAlone.NetGbps, idpBoth.NetGbps)
	}
	if idpBoth.InvWaits == 0 {
		t.Error("cross-device invalidation-queue contention should be visible")
	}
	cpAlone, err := RunMixed(SysCopy, 4, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	cpBoth, err := RunMixed(SysCopy, 4, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cpBoth.NetGbps < cpAlone.NetGbps*0.97 {
		t.Errorf("copy must be immune to SSD interference: %.1f -> %.1f Gb/s",
			cpAlone.NetGbps, cpBoth.NetGbps)
	}
	if cpBoth.Errors != 0 || idpBoth.Errors != 0 {
		t.Error("mixed runs had I/O errors")
	}
}

func TestSensitivityBaselineAndRobustClaims(t *testing.T) {
	tab, _, err := Sensitivity(Options{WindowMs: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Baseline (unperturbed) row: every claim must hold.
	base := tab.Rows[0]
	for i, cell := range base[2:] {
		if cell != "holds" {
			t.Errorf("baseline claim %q does not hold", PaperClaims[i].Name)
		}
	}
	// The headline claims (everything except the narrow 10%% edge over
	// identity-) must be robust to every +/-25%% perturbation.
	for _, row := range tab.Rows[1:] {
		for i, cell := range row[2:] {
			if i == 0 {
				continue // "copy beats identity-" is a ~5-10% margin; may flip
			}
			if cell != "holds" {
				t.Errorf("claim %q flips under %s x%s", PaperClaims[i].Name, row[0], row[1])
			}
		}
	}
}

func TestAPIMicroShape(t *testing.T) {
	rx := MicroPatterns[0] // rx 1500B
	cp, err := RunMicro(SysCopy, rx, 2000)
	if err != nil {
		t.Fatal(err)
	}
	idp, err := RunMicro(SysIdentityStrict, rx, 2000)
	if err != nil {
		t.Fatal(err)
	}
	no, err := RunMicro(SysNoIOMMU, rx, 2000)
	if err != nil {
		t.Fatal(err)
	}
	// The purest form of the paper's insight: for MTU-sized buffers a
	// copy-based map+unmap pair is several times cheaper than a strict
	// zero-copy pair.
	if idp.PerPairUs < cp.PerPairUs*2.5 {
		t.Errorf("identity+ pair %.3fus should be >=2.5x copy pair %.3fus", idp.PerPairUs, cp.PerPairUs)
	}
	if no.PerPairUs > 0.01 {
		t.Errorf("no-iommu pair should be ~free, got %.3fus", no.PerPairUs)
	}
	// The crossover: at 64 KiB the copy pair is the expensive one.
	tx := MicroPatterns[1]
	cpTx, err := RunMicro(SysCopy, tx, 200)
	if err != nil {
		t.Fatal(err)
	}
	idpTx, err := RunMicro(SysIdentityStrict, tx, 200)
	if err != nil {
		t.Fatal(err)
	}
	if cpTx.PerPairUs < idpTx.PerPairUs {
		t.Errorf("at 64KB the copy pair (%.2fus) should exceed identity+ (%.2fus)",
			cpTx.PerPairUs, idpTx.PerPairUs)
	}
}

func TestRunRejectsUnknownSystem(t *testing.T) {
	if _, err := Run(Config{System: "nonesuch", Direction: RX, Cores: 1, MsgSize: 100}); err == nil {
		t.Error("unknown system should fail")
	}
}

func TestTablesRender(t *testing.T) {
	opt := Options{WindowMs: 2, Sizes: []int{1024}, Systems: []string{SysNoIOMMU, SysCopy}}
	tab, err := Fig3(opt)
	if err != nil {
		t.Fatal(err)
	}
	s := tab.String()
	if len(s) == 0 || tab.Columns[0] != "msg" {
		t.Error("table rendering broken")
	}
	csvOut := tab.CSV()
	if !strings.HasPrefix(csvOut, "msg,") {
		t.Errorf("csv header wrong: %q", csvOut[:20])
	}
	if strings.Count(csvOut, "\n") != len(tab.Rows)+1 {
		t.Error("csv row count wrong")
	}
	jsonOut, err := tab.JSON()
	if err != nil || !strings.Contains(jsonOut, `"columns"`) {
		t.Errorf("json rendering broken: %v", err)
	}
	if _, err := tab.Render("nonesuch"); err == nil {
		t.Error("unknown format should fail")
	}
	for _, f := range []string{"", "text", "csv", "json"} {
		if _, err := tab.Render(f); err != nil {
			t.Errorf("format %q: %v", f, err)
		}
	}
}
