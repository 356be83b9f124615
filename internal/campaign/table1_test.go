package campaign_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/campaign"
)

// TestAttackMatrixMatchesTable1 mounts Table 1's three attacks on every
// design and holds the outcomes to the profile bench.Designs declares:
// the sub-page theft lands where sub-page data is exposed, the replay
// where any window is left, the arbitrary scan where arbitrary DMA is
// admitted, and draining deferred invalidations closes every window
// except the TTL-bounded and unbounded ones.
func TestAttackMatrixMatchesTable1(t *testing.T) {
	for _, d := range bench.Designs {
		results, _, err := campaign.RunTable1(d.Name, nil)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		leak, window, arbitrary := results[0], results[1], results[2]
		want := d.Profile
		if leak.Success != want.SubPage {
			t.Errorf("%s: sub-page leak = %v, want %v", d.Name, leak.Success, want.SubPage)
		}
		if window.Success != (want.Window != bench.NoWindow) {
			t.Errorf("%s: window write = %v, want %v", d.Name, window.Success, want.Window != bench.NoWindow)
		}
		if arbitrary.Success != want.Arbitrary {
			t.Errorf("%s: arbitrary read = %v, want %v", d.Name, arbitrary.Success, want.Arbitrary)
		}
		closes := want.Window == bench.NoWindow || want.Window == bench.UntilFlush
		if got := window.Metrics["closed_after_flush"] == 1; got != closes {
			t.Errorf("%s: window closed after flush = %v, want %v", d.Name, got, closes)
		}
	}
}

func TestSelfInvalWindowClosesAtTTL(t *testing.T) {
	// The Basu et al. hardware bounds the replay window to the entry TTL
	// (default 20us here): a 10us replay lands, a 100us replay faults —
	// without any software invalidation.
	samples, err := campaign.WindowSweep(bench.SysSelfInval, []float64{10, 100, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !samples[0].Landed {
		t.Error("10us replay should land (inside TTL)")
	}
	if samples[1].Landed || samples[2].Landed {
		t.Error("replays past the TTL must fault")
	}
}

func TestDeferredWindowSweepClosesAtTimer(t *testing.T) {
	// Paper §3: deferred buffers stay accessible for up to 10ms.
	samples, err := campaign.WindowSweep(bench.SysLinuxDefer, []float64{10, 9000, 11000})
	if err != nil {
		t.Fatal(err)
	}
	if !samples[0].Landed || !samples[1].Landed {
		t.Error("replays before the 10ms flush should land")
	}
	if samples[2].Landed {
		t.Error("replay after the 10ms timer flush must fault")
	}
}

func TestOnlyCopyIsFullySecure(t *testing.T) {
	results, faults, err := campaign.RunTable1(bench.SysCopy, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Success {
			t.Errorf("copy must block every attack: %s breached: %s", r.Payload, r.Detail)
		}
	}
	if len(results[0].Leaked) != 0 {
		t.Error("copy leaked bytes")
	}
	// Every attack attempt against copy should have faulted or landed in
	// quarantined shadow memory; the arbitrary scan must fault.
	if faults == 0 {
		t.Error("expected at least the arbitrary-scan fault to be recorded")
	}
}

func TestTable1CopyIsTheOnlyAllYesRow(t *testing.T) {
	rows, table, err := campaign.Table1(bench.Options{WindowMs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(bench.AllSystems) {
		t.Fatalf("rows = %d", len(rows))
	}
	allYes := 0
	for _, r := range rows {
		ok := r.SubPageProtect && r.NoVulnWindow && r.SingleCorePerf && r.MultiCorePerf
		if ok {
			allYes++
			if r.System != bench.SysCopy {
				t.Errorf("%s unexpectedly passes every column", r.System)
			}
		}
		if r.System == bench.SysCopy && !ok {
			t.Errorf("copy must pass every Table 1 column: %+v", r)
		}
		// Strict designs close the window; deferred ones do not.
		switch r.System {
		case bench.SysIdentityStrict, bench.SysLinuxStrict:
			if !r.NoVulnWindow || r.MultiCorePerf {
				t.Errorf("%s: want window closed + multicore collapse: %+v", r.System, r)
			}
		case bench.SysIdentityDefer, bench.SysLinuxDefer:
			if r.NoVulnWindow || r.SubPageProtect {
				t.Errorf("%s: deferred page-granular design misclassified: %+v", r.System, r)
			}
		}
	}
	if allYes != 1 {
		t.Errorf("exactly one all-yes row expected (copy), got %d", allYes)
	}
	if len(table.Rows) != len(rows) {
		t.Error("rendered table row count mismatch")
	}
}

func TestNoIOMMUIsDefenseless(t *testing.T) {
	results, faults, err := campaign.RunTable1(bench.SysNoIOMMU, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Success {
			t.Errorf("no-iommu must fail every attack: %s held: %s", r.Payload, r.Detail)
		}
	}
	if string(results[0].Leaked) != string(campaign.Secret) {
		t.Errorf("leak should recover the exact secret, got %q", results[0].Leaked)
	}
	if faults != 0 {
		t.Errorf("no-iommu should never fault, got %d", faults)
	}
}
