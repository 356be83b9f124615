package obs

import "repro/internal/stats"

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

// Gauge sets the gauge name to v.
func (r *Registry) Gauge(name string, v float64) { r.gauges[name] = v }

// Observe appends one sample to the distribution name.
func (r *Registry) Observe(name string, v float64) {
	r.dists[name] = append(r.dists[name], v)
}

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
