package campaign_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/campaign"
)

// expectedMatrix is the generalized Table 1: per payload, per backend,
// does the attack breach the protection? This is the security claim the
// whole repo defends — any cell flip is either a new vulnerability or a
// defense silently changing semantics, and must be investigated, not
// re-baselined away.
//
// Table 1's three attacks follow from the profile bench.Designs declares
// (declaredRows); the other rows predict payload behaviour. Backend key
// order follows bench.ExtendedSystems.
var expectedMatrix = map[string]map[string]bool{
	"window-discovery": {
		"no iommu": true, "copy": false, "identity-": true, "identity+": false,
		"defer": true, "strict": false, "swiotlb": true, "selfinval": true,
	},
	"ring-corrupt": {
		"no iommu": true, "copy": false, "identity-": false, "identity+": false,
		"defer": false, "strict": false, "swiotlb": true, "selfinval": false,
	},
	"fault-storm": {
		"no iommu": true, "copy": false, "identity-": false, "identity+": false,
		"defer": false, "strict": false, "swiotlb": false, "selfinval": false,
	},
	"hotplug-surprise": {
		"no iommu": true, "copy": false, "identity-": true, "identity+": true,
		"defer": true, "strict": true, "swiotlb": false, "selfinval": true,
	},
	"ats-spoof": {
		"no iommu": true, "copy": false, "identity-": true, "identity+": true,
		"defer": false, "strict": false, "swiotlb": true, "selfinval": true,
	},
	"magazine-reuse": {
		"no iommu": true, "copy": false, "identity-": true, "identity+": false,
		"defer": true, "strict": false, "swiotlb": false, "selfinval": true,
	},
	"stale-read": {
		"no iommu": true, "copy": false, "identity-": true, "identity+": true,
		"defer": false, "strict": false, "swiotlb": false, "selfinval": true,
	},
	// Interrupt remapping rides translation: every translating design
	// filters doorbell writes to granted vectors, so only the two
	// translation-free designs deliver the storm (iommu/msi.go).
	"interrupt-storm": {
		"no iommu": true, "copy": false, "identity-": false, "identity+": false,
		"defer": false, "strict": false, "swiotlb": true, "selfinval": false,
	},
}

// declaredRows are the payloads whose row is a declared property of each
// design: the sub-page theft, the arbitrary scan and the post-unmap replay.
var declaredRows = map[string]func(bench.Profile) bool{
	"subpage-harvest": func(p bench.Profile) bool { return p.SubPage },
	"arbitrary-scan":  func(p bench.Profile) bool { return p.Arbitrary },
	"replay-window":   func(p bench.Profile) bool { return p.Window != bench.NoWindow },
}

func init() {
	for pl, breach := range declaredRows {
		expectedMatrix[pl] = map[string]bool{}
		for _, d := range bench.Designs {
			expectedMatrix[pl][d.Name] = breach(d.Profile)
		}
	}
}

// grid renders a success matrix as an aligned text block for diffs.
func grid(payloads, systems []string, cell func(pl, sys string) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s", "payload")
	for _, s := range systems {
		fmt.Fprintf(&b, " %-10s", s)
	}
	b.WriteString("\n")
	for _, pl := range payloads {
		fmt.Fprintf(&b, "%-18s", pl)
		for _, s := range systems {
			fmt.Fprintf(&b, " %-10s", cell(pl, s))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func mark(breach bool) string {
	if breach {
		return "BREACH"
	}
	return "ok"
}

// TestSuccessMatrixTable1 asserts the full 10x8 success matrix cell by
// cell — the generalized Table 1 — with a readable grid diff on any
// mismatch.
func TestSuccessMatrixTable1(t *testing.T) {
	payloads := campaign.Payloads()
	if len(payloads) < 10 {
		t.Fatalf("payload library shrank: %d payloads (want >= 10): %v", len(payloads), payloads)
	}
	systems := bench.ExtendedSystems
	if len(systems) != 8 {
		t.Fatalf("backend set changed: %d systems (want 8): %v", len(systems), systems)
	}
	tb, results, err := campaign.Matrix(campaign.MatrixConfig{Seed: 1})
	if err != nil {
		t.Fatalf("Matrix: %v", err)
	}
	if len(tb.Rows) != len(payloads) {
		t.Fatalf("table has %d rows, want %d", len(tb.Rows), len(payloads))
	}

	observed := make(map[string]map[string]bool, len(payloads))
	for i, r := range results {
		pl, sys := payloads[i/len(systems)], systems[i%len(systems)]
		if r.Payload != pl || r.System != sys {
			t.Fatalf("result %d out of canonical order: got (%s,%s), want (%s,%s)",
				i, r.Payload, r.System, pl, sys)
		}
		if r.Err != nil {
			t.Fatalf("%s vs %s: %v", pl, sys, r.Err)
		}
		if observed[pl] == nil {
			observed[pl] = make(map[string]bool)
		}
		observed[pl][sys] = r.Success
	}

	var mismatches []string
	for _, pl := range payloads {
		want, ok := expectedMatrix[pl]
		if !ok {
			t.Errorf("payload %q has no expected row — add it to expectedMatrix", pl)
			continue
		}
		for _, sys := range systems {
			if observed[pl][sys] != want[sys] {
				mismatches = append(mismatches,
					fmt.Sprintf("  %s vs %s: got %s, want %s", pl, sys,
						mark(observed[pl][sys]), mark(want[sys])))
			}
		}
	}
	if len(mismatches) > 0 {
		t.Errorf("success matrix diverged in %d cells:\n%s\nobserved:\n%s\nexpected:\n%s",
			len(mismatches), strings.Join(mismatches, "\n"),
			grid(payloads, systems, func(pl, sys string) string { return mark(observed[pl][sys]) }),
			grid(payloads, systems, func(pl, sys string) string { return mark(expectedMatrix[pl][sys]) }))
	}
}

// TestCopyIsTheOnlyUnbreachedColumn asserts the paper's headline claim
// at campaign scale: across all ten payloads, copy is the only backend
// with zero breaches, and "no iommu" loses every cell.
func TestCopyIsTheOnlyUnbreachedColumn(t *testing.T) {
	_, results, err := campaign.Matrix(campaign.MatrixConfig{Seed: 1})
	if err != nil {
		t.Fatalf("Matrix: %v", err)
	}
	systems := bench.ExtendedSystems
	breaches := make(map[string]int)
	for i, r := range results {
		if r.Success {
			breaches[systems[i%len(systems)]]++
		}
	}
	if breaches[bench.SysCopy] != 0 {
		t.Errorf("copy was breached %d times — the paper's central security claim broke", breaches[bench.SysCopy])
	}
	for _, sys := range systems {
		if sys != bench.SysCopy && breaches[sys] == 0 {
			t.Errorf("%s shows zero breaches — either the attacks regressed or the matrix is vacuous", sys)
		}
	}
	if got, want := breaches[bench.SysNoIOMMU], len(campaign.Payloads()); got != want {
		t.Errorf("no iommu breached %d/%d payloads — every attack must succeed without protection", got, want)
	}
}
