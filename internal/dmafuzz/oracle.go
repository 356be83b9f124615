package dmafuzz

import (
	"fmt"

	"repro/internal/bench"
)

// applySecurityOracle checks a backend's probe aggregates against its
// declared profile (bench.Designs). Both directions are enforced:
// forbidden windows must never be observed, and declared windows must be
// positively observed whenever the trace presented an eligible probe —
// so a backend that silently stopped exhibiting its documented window
// (or an oracle that stopped detecting it) fails loudly instead of
// passing vacuously.
func applySecurityOracle(br *BackendResult, prof bench.Profile) {
	sec := br.Security

	window := prof.Window != bench.NoWindow
	if !window && sec.StaleObserved > 0 {
		br.violatef("security: %d stale-IOVA device writes reached OS memory (no window predicted for %s)",
			sec.StaleObserved, br.Backend)
	}
	if window && sec.StaleEligible > 0 && sec.StaleObserved == 0 {
		br.violatef("security: deferred-invalidation window never observed (%d eligible probes) — oracle or model broken",
			sec.StaleEligible)
	}

	// The one declared exception: copy-degraded serves only some mappings
	// page-granularly (its spill path), so whether a probe leaks depends
	// on which path served its mapping — a leak is allowed, never required.
	if !prof.SubPage && br.Backend != "copy-degraded" && sec.SubPageObserved > 0 {
		br.violatef("security: %d sub-page sibling reads leaked co-located data (byte-granular backend)",
			sec.SubPageObserved)
	}
	if prof.SubPage && sec.SubPageEligible > 0 && sec.SubPageObserved == 0 {
		br.violatef("security: predicted sub-page leak never observed (%d eligible probes)",
			sec.SubPageEligible)
	}

	arbLeaks := sec.ArbitraryLeaks + sec.ProberLeaks
	arbTries := sec.ArbitraryProbes + sec.ProberReads
	if !prof.Arbitrary && arbLeaks > 0 {
		br.violatef("security: %d arbitrary device reads of never-mapped memory succeeded", arbLeaks)
	}
	if prof.Arbitrary && arbTries > 0 && arbLeaks == 0 {
		br.violatef("security: predicted arbitrary access never observed (%d attempts)", arbTries)
	}

	// Universal teardown containment: after quiesce + settle, no stale
	// IOVA reaches an OS buffer under any backend.
	if sec.FinalObserved > 0 {
		br.violatef("security: %d/%d stale IOVAs still reached OS memory after teardown settle",
			sec.FinalObserved, sec.FinalProbes)
	}
}

// applyResourceOracle checks that the mapper returned to baseline after
// each pass and that the second pass ended in exactly the first pass's
// steady state (warm caches are allowed once; monotonic growth is a
// leak). Under allocation-failure injection the steady-state comparison
// is suspended (failures land at different points in each pass), but the
// accounting-zero invariant is not: error paths must unwind fully.
func applyResourceOracle(br *BackendResult, plan FaultPlan) {
	if !br.Resource.AccountingZero1 {
		br.violatef("resource: accounting not zero after pass 1 teardown")
	}
	if !br.Resource.AccountingZero2 {
		br.violatef("resource: accounting not zero after pass 2 teardown: %+v", br.Resource.Accounting2)
	}
	if plan.AllocFailEvery != 0 {
		return
	}
	for d := range br.Resource.InUse1 {
		if d < len(br.Resource.InUse2) && br.Resource.InUse1[d] != br.Resource.InUse2[d] {
			br.violatef("resource: domain %d memory not steady across passes: %d -> %d bytes",
				d, br.Resource.InUse1[d], br.Resource.InUse2[d])
		}
	}
}

// applyDifferentialOracle compares the benign per-op outcomes of every
// backend against the first: skip decisions, error/fault outcomes,
// transfer sizes, and content checksums must be identical — drivers
// cannot tell the protection strategies apart (paper §5.1). Probe ops
// are compared only on their (backend-invariant) skip decision; their
// outcomes belong to the security oracle.
func applyDifferentialOracle(tr *Trace, results []*BackendResult) []string {
	diffs := []string{}
	if len(results) < 2 {
		return diffs
	}
	ref := results[0]
	for _, other := range results[1:] {
		n := len(ref.OpResults)
		if len(other.OpResults) != n {
			diffs = append(diffs, fmt.Sprintf("differential: %s recorded %d op results, %s recorded %d",
				ref.Backend, n, other.Backend, len(other.OpResults)))
			continue
		}
		mismatches := 0
		for i := 0; i < n; i++ {
			a := ref.OpResults[i].comparable(tr.Ops[i].Kind)
			b := other.OpResults[i].comparable(tr.Ops[i].Kind)
			if a != b {
				mismatches++
				if mismatches <= 5 { // cap the noise; one is already fatal
					diffs = append(diffs, fmt.Sprintf(
						"differential: op %d (%s): %s={%s} vs %s={%s}",
						i, tr.Ops[i].Kind, ref.Backend, a, other.Backend, b))
				}
			}
		}
		if mismatches > 5 {
			diffs = append(diffs, fmt.Sprintf("differential: %s vs %s: %d further mismatches elided",
				ref.Backend, other.Backend, mismatches-5))
		}
	}
	return diffs
}
