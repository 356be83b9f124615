// Package attack implements the DMA attacks the paper defends against and
// evaluates every protection strategy against them. Outcomes are not
// scripted: a "compromised device" issues real DMAs through the simulated
// IOMMU, and an attack succeeds or fails according to the page-table and
// IOTLB state the strategy produced (see DESIGN.md §6).
//
// The three scenarios cover the two weaknesses of §4 plus a baseline
// probe, and run on internal/campaign's payload engine (which generalizes
// them into the full ~10-payload success matrix of cmd/attackbench):
//
//   - SubPageTheft ("subpage-harvest"): read kernel data co-located on the
//     page of a mapped DMA buffer (the "no sub-page protection" weakness).
//   - DeferredWindowWrite ("replay-window"): replay a just-unmapped IOVA
//     and corrupt reused OS memory (the "deferred protection" weakness;
//     §3 notes a write within 10us of dma_unmap crashed Linux).
//   - ArbitraryScan ("arbitrary-scan"): DMA to an address the OS never
//     authorized at all.
package attack

import (
	"repro/internal/campaign"
	"repro/internal/cycles"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Outcome reports what a compromised device achieved against one strategy.
type Outcome struct {
	System string

	// SubPageLeak: the device recovered secret bytes co-located with a
	// mapped buffer.
	SubPageLeak bool
	LeakedBytes []byte

	// WindowWrite: a device write issued after dma_unmap returned
	// modified OS-visible memory (vulnerability window).
	WindowWrite bool
	// WindowClosedAfterFlush: the same replay faults once deferred
	// invalidations flush.
	WindowClosedAfterFlush bool

	// ArbitraryRead: a DMA to a never-authorized address succeeded.
	ArbitraryRead bool

	Faults uint64
	Err    error
}

// Run executes all three scenarios against one protection strategy.
func Run(system string) (Outcome, error) {
	return RunTraced(system, nil)
}

// RunTraced is Run with an optional IOMMU event tracer attached, so the
// attack's map/unmap/fault/invalidation sequence can be inspected. The
// scenarios are campaign payloads executed back-to-back on one target
// machine, in proc context.
func RunTraced(system string, tr *trace.Tracer) (Outcome, error) {
	out := Outcome{System: system}
	t, err := campaign.NewTarget(system, 1)
	if err != nil {
		return out, err
	}
	t.Mach.IOMMU.Trace = tr
	var results [3]campaign.Result
	var scenarioErr error
	t.Mach.Eng.Spawn("victim", 0, 0, func(p *sim.Proc) {
		payloads := []campaign.Payload{
			mustFind("subpage-harvest"),
			campaign.NewReplayWindow(2, true),
			mustFind("arbitrary-scan"),
		}
		for i, pl := range payloads {
			if scenarioErr = campaign.Execute(p, t, pl, &results[i]); scenarioErr != nil {
				return
			}
		}
	})
	t.Mach.Eng.Run(cycles.FromMillis(50))
	out.Faults = t.Mach.IOMMU.FaultCount
	t.Mach.Teardown()

	out.SubPageLeak = results[0].Success
	out.LeakedBytes = results[0].Leaked
	out.WindowWrite = results[1].Success
	out.WindowClosedAfterFlush = results[1].Metrics["closed_after_flush"] == 1
	out.ArbitraryRead = results[2].Success
	if scenarioErr != nil {
		out.Err = scenarioErr
	}
	return out, out.Err
}

// mustFind resolves a library payload; the names are compile-time
// constants of this package, so a miss is a programming error.
func mustFind(name string) campaign.Payload {
	pl, err := campaign.Find(name)
	if err != nil {
		panic(err)
	}
	return pl
}

// secret is the co-located kernel data the device tries to steal.
var secret = campaign.Secret
