package obs

import (
	"sort"
	"strings"
)

// SpanStat is the accumulated cost of one span path.
type SpanStat struct {
	// Path is the slash-joined hierarchical span name, e.g.
	// "unmap/inval/inval-wait" or "rx/stack/spin:iova".
	Path  string `json:"path"`
	Count uint64 `json:"count"`
	// Self is the exclusive busy-cycle cost: cycles accumulated inside
	// this span but not inside any child span. Summing Self over all
	// paths never double-counts a cycle.
	Self uint64 `json:"self_cycles"`
	// Total is the inclusive cost (Self plus all children).
	Total uint64 `json:"total_cycles"`
	// ByCore is the exclusive cost split by simulated core index.
	ByCore []uint64 `json:"by_core,omitempty"`
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

func (pr *Profiler) add(path string, core int, self, total uint64) {
	st := pr.spans[path]
	if st == nil {
		st = &SpanStat{Path: path}
		pr.spans[path] = st
	}
	st.Count++
	st.Self += self
	st.Total += total
	if core >= 0 {
		for len(st.ByCore) <= core {
			st.ByCore = append(st.ByCore, 0)
		}
		st.ByCore[core] += self
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

// Snapshot captures the current totals.
func (pr *Profiler) Snapshot() Profile {
	p := Profile{Spans: make([]SpanStat, 0, len(pr.spans))}
	for _, st := range pr.spans {
		p.Spans = append(p.Spans, *st)
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

// Coverage returns Attributed/TotalBusy as a fraction (0 when TotalBusy is
// unknown). The acceptance bar for the paper-figure workloads is ≥ 0.95.
func (p Profile) Coverage() float64 {
	if p.TotalBusy == 0 {
		return 0
	}
	return float64(p.Attributed()) / float64(p.TotalBusy)
}

// GroupStat is the cost of one breakdown category.
type GroupStat struct {
	Group  string `json:"group"`
	Cycles uint64 `json:"cycles"`
	Count  uint64 `json:"count"`
}

// Group folds a span path into the paper's breakdown vocabulary:
//
//	lock/spin    any "spin:<lock>" segment (contended + uncontended)
//	invalidate   IOTLB invalidation submit/wait
//	copy         data copies to/from shadow or bounce buffers
//	copy-mgmt    shadow-pool management (acquire/find/release/grow)
//	iova         IOVA allocator work
//	pt-mgmt      page-table construction/teardown
//	copy-user    the stack's copy_to_user/copy_from_user
//	<first seg>  everything else (rx, tx, map, unmap residue, ...)
func Group(path string) string {
	rest := path
	for rest != "" {
		seg := rest
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			seg, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if strings.HasPrefix(seg, "spin:") {
			return "lock/spin"
		}
	}
	last := path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		last = path[i+1:]
	}
	switch {
	case strings.HasPrefix(last, "resilience"):
		return "resilience"
	case strings.HasPrefix(last, "inval"):
		return "invalidate"
	case last == "copy" || last == "copy-in" || last == "copy-out" || last == "bounce":
		return "copy"
	case strings.HasPrefix(last, "pool-"):
		return "copy-mgmt"
	case strings.HasPrefix(last, "iova-"):
		return "iova"
	case last == "ptes":
		return "pt-mgmt"
	case last == "copy-user":
		return "copy-user"
	}
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

// Groups aggregates the profile's exclusive cycles by breakdown category,
// sorted by cycles descending.
func (p Profile) Groups() []GroupStat {
	m := make(map[string]*GroupStat)
	for _, st := range p.Spans {
		g := m[Group(st.Path)]
		if g == nil {
			g = &GroupStat{Group: Group(st.Path)}
			m[g.Group] = g
		}
		g.Cycles += st.Self
		g.Count += st.Count
	}
	out := make([]GroupStat, 0, len(m))
	for _, g := range m {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Group < out[j].Group
	})
	return out
}

// GroupCycles returns the exclusive cycles attributed to one category.
func (p Profile) GroupCycles(group string) uint64 {
	var sum uint64
	for _, st := range p.Spans {
		if Group(st.Path) == group {
			sum += st.Self
		}
	}
	return sum
}
