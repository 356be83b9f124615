package obs

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Registry is a metrics registry with three kinds of series, all named by
// dotted "subsystem.object.metric" strings (e.g. "daemon.store.hits",
// "farm.queue_hwm", "farm.worker_util_pct"):
//
//   - counters: monotonically published uint64 totals
//   - gauges: point-in-time float64 levels
//   - distributions: float64 samples, summarized via internal/stats
//
// Owners keep their raw fields as the storage of record and publish
// snapshots into a fresh registry when asked (pull model, see
// publish.go); the daemon's health reply is its one reader.
type Registry struct {
	counters map[string]uint64
	gauges   map[string]float64
	dists    map[string][]float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]uint64),
		gauges:   make(map[string]float64),
		dists:    make(map[string][]float64),
	}
}

// Counter sets the counter name to total v (publishing is snapshot-style:
// the caller owns the running total).
func (r *Registry) Counter(name string, v uint64) { r.counters[name] = v }

// AddCounter increments the counter name by v.
func (r *Registry) AddCounter(name string, v uint64) { r.counters[name] += v }

// Gauge sets the gauge name to v.
func (r *Registry) Gauge(name string, v float64) { r.gauges[name] = v }

// Observe appends one sample to the distribution name.
func (r *Registry) Observe(name string, v float64) {
	r.dists[name] = append(r.dists[name], v)
}

// CounterValue returns a counter's current value (0 if absent).
func (r *Registry) CounterValue(name string) uint64 { return r.counters[name] }

// Snapshot is an immutable, JSON-friendly view of a registry.
type Snapshot struct {
	Counters      map[string]uint64        `json:"counters,omitempty"`
	Gauges        map[string]float64       `json:"gauges,omitempty"`
	Distributions map[string]stats.Summary `json:"distributions,omitempty"`
}

// Snapshot summarizes the registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for k, v := range r.counters {
			s.Counters[k] = v
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for k, v := range r.gauges {
			s.Gauges[k] = v
		}
	}
	if len(r.dists) > 0 {
		s.Distributions = make(map[string]stats.Summary, len(r.dists))
		for k, v := range r.dists {
			s.Distributions[k] = stats.Summarize(v)
		}
	}
	return s
}

// String renders the snapshot as sorted "name value" lines.
func (s Snapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "%-44s %d\n", k, s.Counters[k])
	}
	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "%-44s %g\n", k, s.Gauges[k])
	}
	names = names[:0]
	for k := range s.Distributions {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		d := s.Distributions[k]
		fmt.Fprintf(&b, "%-44s n=%d mean=%.2f p50=%.2f p99=%.2f max=%.2f\n",
			k, d.Count, d.Mean, d.P50, d.P99, d.Max)
	}
	return b.String()
}
