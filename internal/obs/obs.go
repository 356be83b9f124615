// Package obs is the simulation-time observability layer: it explains
// *where the virtual cycles went*, in the same vocabulary the paper uses
// for its breakdown figures (Figs. 5, 6, 8a, 9), and what the IOMMU did
// meanwhile.
//
// Two pieces, one event stream each:
//
//   - Profiler — a cycle-attribution profiler fed by hierarchical spans
//     (sim.SpanSink). Subsystems open spans around their cost sites
//     ("map/iova-alloc", "unmap/inval/inval-wait", "spin:iova", ...) and
//     the profiler accumulates each span path's exclusive ("self") busy
//     cycles, split by the cycles component (cycles.Tag*) they were
//     charged under: the path says where the cycles went, the component
//     what they were, in the vocabulary of Figures 5, 8 and 10.
//
//   - Recorder — captures the same spans as timeline slices, plus the
//     IOMMU's typed events (iommu.Event: maps, unmaps, invalidations,
//     faults, quarantines), and writes Chrome trace-event JSON
//     (chrometrace.go) loadable in Perfetto or chrome://tracing: one
//     track per core, spans as slices, IOMMU events as instants.
//
// Registry (registry.go, publish.go) is a separate, host-side surface:
// the daemon's health reply names its farm.* and daemon.* metrics there.
// So is StartProfiles (hostprof.go), the pprof CPU and heap profiles of
// the tools' -cpuprofile and -memprofile flags.
//
// Everything is opt-in per engine: sim procs carry span hooks that are a
// single nil check when no Observer is installed, the IOMMU's OnEvent hook
// is one nil check when unset, spans never charge cycles, and therefore
// virtual-time results are bit-identical with observability on or off
// (bench's TestObservingNeverChangesResults is the proof). See
// doc/OBSERVABILITY.md for the user guide and span taxonomy.
package obs

import (
	"fmt"

	"repro/internal/sim"
)

// Observer bundles the pieces and implements sim.SpanSink, fanning each
// completed span out to the profiler and (when tracing) the recorder.
// Install with eng.SetObserver(o) before spawning procs, and point the
// machine's iommu.IOMMU.OnEvent at Rec.IOMMUEvent to trace its events. An
// Observer is per-engine state (the engine dispatches one proc at a
// time); never share one across concurrently-running machines.
type Observer struct {
	Prof *Profiler
	Rec  *Recorder // nil unless a timeline trace was requested
}

// New returns an Observer with a profiler; pass trace=true to also record
// the timeline for Chrome trace export.
func New(trace bool) *Observer {
	o := &Observer{Prof: NewProfiler()}
	if trace {
		o.Rec = NewRecorder(0)
	}
	return o
}

// SpanEnd implements sim.SpanSink.
func (o *Observer) SpanEnd(p *sim.Proc, path string, tags []string, self []uint64, start, end uint64) {
	o.Prof.add(path, tags, self)
	if o.Rec != nil {
		o.Rec.slice(path, p.Core(), start, end)
	}
}

// WriteTraceFile writes the recorded timeline and IOMMU events as Chrome
// trace-event JSON at path.
func (o *Observer) WriteTraceFile(path string) error {
	if o.Rec == nil {
		return fmt.Errorf("obs: no timeline recorded (construct the Observer with New(true))")
	}
	return o.Rec.WriteChromeTraceFile(path)
}
