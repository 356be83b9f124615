package obs

import (
	"maps"
	"sort"
)

// SpanStat is the accumulated cost of one span path.
type SpanStat struct {
	// Path is the slash-joined hierarchical span name, e.g.
	// "unmap/inval/inval-wait" or "rx/stack/spin:iova".
	Path  string `json:"path"`
	Count uint64 `json:"count"`
	// Self is the exclusive busy-cycle cost: cycles accounted inside
	// this span but not inside any child span. Summing Self over all
	// paths never double-counts a cycle.
	Self uint64 `json:"self_cycles"`
	// ByComponent splits Self by the cycles component (cycles.Tag*) each
	// cycle was charged under: the path says where the cycles went, the
	// component what they were.
	ByComponent map[string]uint64 `json:"by_component"`
}

// Profiler accumulates span costs. It is single-engine state: the sim
// engine dispatches one proc at a time, so no locking is needed.
type Profiler struct {
	spans map[string]*SpanStat
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{spans: make(map[string]*SpanStat)}
}

func (pr *Profiler) add(path string, tags []string, self []uint64) {
	st := pr.spans[path]
	if st == nil {
		st = &SpanStat{Path: path, ByComponent: make(map[string]uint64)}
		pr.spans[path] = st
	}
	st.Count++
	for i, c := range self {
		if c != 0 {
			st.Self += c
			st.ByComponent[tags[i]] += c
		}
	}
}

// Profile is an immutable snapshot of a profiler, suitable for JSON
// embedding in benchmark artifacts.
type Profile struct {
	// Spans is sorted by Self descending.
	Spans []SpanStat `json:"spans"`
	// TotalBusy is the denominator for attribution: the sum of Busy()
	// over the workload's CPU procs, filled in by the harness.
	TotalBusy uint64 `json:"total_busy_cycles"`
}

// Snapshot captures the current totals. The snapshot shares nothing with
// the profiler: spans that exit later (Engine.Stop unwinding procs
// through their deferred SpanExit calls) leave it unchanged.
func (pr *Profiler) Snapshot() Profile {
	p := Profile{Spans: make([]SpanStat, 0, len(pr.spans))}
	for _, st := range pr.spans {
		s := *st
		s.ByComponent = maps.Clone(st.ByComponent)
		p.Spans = append(p.Spans, s)
	}
	sort.Slice(p.Spans, func(i, j int) bool {
		if p.Spans[i].Self != p.Spans[j].Self {
			return p.Spans[i].Self > p.Spans[j].Self
		}
		return p.Spans[i].Path < p.Spans[j].Path
	})
	return p
}

// Attributed returns the busy cycles covered by named spans. Self cycles
// are disjoint by construction, so this is a plain sum.
func (p Profile) Attributed() uint64 {
	var sum uint64
	for _, st := range p.Spans {
		sum += st.Self
	}
	return sum
}

// Component returns the self cycles charged under one cycles component,
// summed over every span.
func (p Profile) Component(tag string) uint64 {
	var sum uint64
	for _, st := range p.Spans {
		sum += st.ByComponent[tag]
	}
	return sum
}

// Coverage returns Attributed/TotalBusy as a fraction (0 when TotalBusy is
// unknown). The acceptance bar for the paper-figure workloads is ≥ 0.95.
func (p Profile) Coverage() float64 {
	if p.TotalBusy == 0 {
		return 0
	}
	return float64(p.Attributed()) / float64(p.TotalBusy)
}
