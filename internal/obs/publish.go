package obs

// Metric publishing: the daemon's health reply (internal/daemon) carries
// the farm.* and daemon.* metrics below. Each owner keeps its raw
// counters as the storage of record and hands a snapshot struct to a
// Publish helper, which names them under the dotted convention
//
//	<subsystem>.<object>.<metric>     e.g. daemon.store.hits

// FarmStats is the scheduler snapshot of a bench.Farm (the host-side
// work-stealing sweep pool). Defined here so the pool can publish through
// the registry without an import cycle. All values are host-time based
// and informational — they must never enter a benchdiff-gated artifact.
type FarmStats struct {
	// Workers is the pool size (0 for a nil/serial farm).
	Workers int
	// Submitted / Executed count sweep points enqueued and completed.
	Submitted, Executed uint64
	// Steals counts points executed by a worker other than the deque
	// they were dealt to (load imbalance made visible).
	Steals uint64
	// Panics counts points that died and were converted to errors.
	Panics uint64
	// Canceled counts points completed with a context error instead of
	// running (their request was cancelled while they sat queued).
	Canceled uint64
	// QueueHWM is the high-water mark of queued-but-unstarted points.
	QueueHWM int
	// QueueDepth is the number of queued-but-unstarted points at snapshot
	// time; InFlight the number executing. Unlike the historical counters
	// these are live values — the daemon's admission control reads them.
	QueueDepth, InFlight int
	// UtilPct is each worker's busy time as a percentage of the farm's
	// lifetime so far.
	UtilPct []float64
}

// MeanUtilPct averages UtilPct over the workers (0 for a serial farm).
func (s FarmStats) MeanUtilPct() float64 {
	if len(s.UtilPct) == 0 {
		return 0
	}
	var sum float64
	for _, u := range s.UtilPct {
		sum += u
	}
	return sum / float64(len(s.UtilPct))
}

// PublishFarm records a sweep pool's scheduler metrics under farm.*.
func PublishFarm(r *Registry, s FarmStats) {
	r.Counter("farm.submitted", s.Submitted)
	r.Counter("farm.executed", s.Executed)
	r.Counter("farm.steals", s.Steals)
	r.Counter("farm.panics", s.Panics)
	r.Counter("farm.canceled", s.Canceled)
	r.Gauge("farm.workers", float64(s.Workers))
	r.Gauge("farm.queue_hwm", float64(s.QueueHWM))
	r.Gauge("farm.queue_depth", float64(s.QueueDepth))
	r.Gauge("farm.inflight", float64(s.InFlight))
	for _, u := range s.UtilPct {
		r.Observe("farm.worker_util_pct", u)
	}
}

// DaemonStats is the service-level snapshot of the simd daemon
// (internal/daemon). Defined here, like FarmStats, so the daemon can
// publish through the registry without an import cycle. All values are
// host-side and informational — never part of a gated artifact.
type DaemonStats struct {
	// Requests counts connections served; Runs artifacts computed;
	// CacheHits requests served straight from the result store.
	Requests, Runs, CacheHits uint64
	// Degraded counts reduced-window previews served under overload;
	// Overloads typed rejections when every ladder rung was exhausted.
	Degraded, Overloads uint64
	// Retries counts backoff re-attempts after transient failures;
	// PanicsRecovered panics caught by the per-request barrier.
	Retries, PanicsRecovered uint64
	// Canceled / Deadlines count requests ended by client disconnect and
	// deadline expiry respectively.
	Canceled, Deadlines uint64
	// BadRequests / InternalErrors count typed failure responses.
	BadRequests, InternalErrors uint64
	// CorruptRecomputed counts store entries that failed verification and
	// were quarantined-then-recomputed.
	CorruptRecomputed uint64
	// Executing / Waiting are the live admission-control occupancy.
	Executing, Waiting int
	// Store mirror of the result store's counters.
	StoreHits, StoreMisses, StorePuts uint64
	StoreCorrupt, StoreReadErrors     uint64
	UptimeMs                          int64
}

// PublishDaemon records the daemon's service metrics under daemon.*.
func PublishDaemon(r *Registry, s DaemonStats) {
	r.Counter("daemon.requests", s.Requests)
	r.Counter("daemon.runs", s.Runs)
	r.Counter("daemon.cache_hits", s.CacheHits)
	r.Counter("daemon.degraded", s.Degraded)
	r.Counter("daemon.overloads", s.Overloads)
	r.Counter("daemon.retries", s.Retries)
	r.Counter("daemon.panics_recovered", s.PanicsRecovered)
	r.Counter("daemon.canceled", s.Canceled)
	r.Counter("daemon.deadlines", s.Deadlines)
	r.Counter("daemon.bad_requests", s.BadRequests)
	r.Counter("daemon.internal_errors", s.InternalErrors)
	r.Counter("daemon.store.corrupt_recomputed", s.CorruptRecomputed)
	r.Counter("daemon.store.hits", s.StoreHits)
	r.Counter("daemon.store.misses", s.StoreMisses)
	r.Counter("daemon.store.puts", s.StorePuts)
	r.Counter("daemon.store.corrupt", s.StoreCorrupt)
	r.Counter("daemon.store.read_errors", s.StoreReadErrors)
	r.Gauge("daemon.executing", float64(s.Executing))
	r.Gauge("daemon.waiting", float64(s.Waiting))
	r.Gauge("daemon.uptime_ms", float64(s.UptimeMs))
}
