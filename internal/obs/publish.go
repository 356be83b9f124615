package obs

// Metric publishing: each subsystem keeps its raw counters as the storage
// of record (cheap, lock-free under engine scheduling), and these helpers
// pull them into a Registry under the repo's dotted naming convention
//
//	<subsystem>.<object>.<metric>     e.g. iommu.iotlb.hits
//
// after a run. The registry is therefore a zero-cost abstraction during
// simulation and a single uniform surface at reporting time.

import (
	"repro/internal/dmaapi"
	"repro/internal/iommu"
	"repro/internal/nic"
	"repro/internal/resilience"
	"repro/internal/shadow"
	"repro/internal/sim"
)

// PublishEngine records the scheduler's dispatch statistics.
func PublishEngine(r *Registry, e *sim.Engine) {
	r.Counter("sim.engine.dispatches", e.Dispatches())
	r.Counter("sim.engine.fast_yields", e.FastYields())
	r.Counter("sim.engine.lazy_drops", e.LazyDrops())
}

// PublishLock records one spinlock's contention statistics under
// lock.<name>.*.
func PublishLock(r *Registry, l *sim.Spinlock) {
	p := "lock." + l.Name() + "."
	r.Counter(p+"acquires", l.Acquires)
	r.Counter(p+"contended", l.Contended)
	r.Counter(p+"wait_cycles", l.WaitCycles)
	r.Counter(p+"handoff_cycles", l.HandoffCycles)
	r.Gauge(p+"max_waiters", float64(l.MaxWaiters))
}

// PublishIOMMU records translation, IOTLB, fault and invalidation-queue
// statistics under iommu.*.
func PublishIOMMU(r *Registry, u *iommu.IOMMU) {
	r.Counter("iommu.translations", u.Translations)
	r.Counter("iommu.faults", u.FaultCount)
	t := u.TLB()
	r.Counter("iommu.iotlb.hits", t.Hits)
	r.Counter("iommu.iotlb.misses", t.Misses)
	r.Counter("iommu.iotlb.evictions", t.Evictions)
	r.Counter("iommu.iotlb.invalidations", t.Invalidations)
	r.Counter("iommu.iotlb.ttl_expiries", t.TTLExpiries)
	r.Gauge("iommu.iotlb.hit_rate", t.HitRate())
	r.Counter("iommu.invq.submitted", u.Queue.Submitted)
	r.Counter("iommu.invq.completed", u.Queue.Completed)
	r.Counter("iommu.invq.timeouts", u.Queue.Timeouts)
	r.Counter("iommu.invq.recoveries", u.Queue.Recoveries)
	ring := u.FaultRing()
	r.Gauge("iommu.faultring.len", float64(ring.Len()))
	r.Counter("iommu.faultring.recorded", ring.Recorded())
	r.Counter("iommu.faultring.overflow", ring.Overflow())
	r.Counter("iommu.blocked_dmas", u.BlockedDMAs)
	r.Gauge("iommu.blocked_devices", float64(u.BlockedDevices()))
	PublishLock(r, u.Queue.Lock)
}

// PublishResilience records the fault-domain policy engine's aggregate
// state under resilience.*.
func PublishResilience(r *Registry, s *resilience.Supervisor) {
	r.Counter("resilience.faults_observed", s.FaultsObserved)
	r.Counter("resilience.quarantines", s.Quarantines)
	r.Counter("resilience.readmits", s.Readmits)
	r.Counter("resilience.wiped_pages", s.WipedPages)
	r.Gauge("resilience.quarantined_devices", float64(s.QuarantinedDevices()))
}

// PublishPool records the shadow pool's statistics under shadow.pool.*.
func PublishPool(r *Registry, ps shadow.PoolStats) {
	r.Counter("shadow.pool.acquires", ps.Acquires)
	r.Counter("shadow.pool.releases", ps.Releases)
	r.Counter("shadow.pool.finds", ps.Finds)
	r.Counter("shadow.pool.grows", ps.Grows)
	r.Counter("shadow.pool.cache_hits", ps.CacheHits)
	r.Counter("shadow.pool.list_hits", ps.ListHits)
	r.Counter("shadow.pool.fallback_buffers", ps.FallbackBuffers)
	r.Counter("shadow.pool.trims", ps.Trims)
	r.Gauge("shadow.pool.bytes", float64(ps.TotalBytes()))
}

// PublishNIC records the NIC's datapath counters under nic.*.
func PublishNIC(r *Registry, n *nic.NIC) {
	r.Counter("nic.rx.frames", n.RxFrames)
	r.Counter("nic.rx.bytes", n.RxBytes)
	r.Counter("nic.rx.drops", n.RxDrops)
	r.Counter("nic.rx.nobuf_drops", n.RxNoBufDrops)
	r.Counter("nic.rx.faults", n.RxFaults)
	r.Counter("nic.tx.frames", n.TxFrames)
	r.Counter("nic.tx.bytes", n.TxBytes)
	r.Counter("nic.tx.skbs", n.TxSkbs)
	r.Counter("nic.tx.faults", n.TxFaults)
	r.Counter("nic.rx.quarantine_drops", n.RxQuarantineDrops)
	r.Counter("nic.tx.quarantine_drops", n.TxQuarantineDrops)
}

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

// PublishMapper records one protection strategy's DMA-API statistics under
// dma.<strategy>.*.
func PublishMapper(r *Registry, name string, st dmaapi.Stats) {
	p := "dma." + name + "."
	r.Counter(p+"maps", st.Maps)
	r.Counter(p+"unmaps", st.Unmaps)
	r.Counter(p+"bytes_mapped", st.BytesMapped)
	r.Counter(p+"coherent_allocs", st.CoherentAllocs)
	r.Counter(p+"deferred_flushes", st.DeferredFlushes)
	r.Gauge(p+"deferred_queue_peak", float64(st.DeferredQueuePeak))
	if st.Maps > 0 || st.FallbackMaps > 0 {
		r.Counter(p+"fallback_maps", st.FallbackMaps)
		r.Counter(p+"hybrid_maps", st.HybridMaps)
		r.Counter(p+"bytes_copied", st.BytesCopied)
		r.Counter(p+"copy_hint_bytes_saved", st.CopyHintBytesSaved)
		r.Gauge(p+"shadow_pool_bytes", float64(st.ShadowPoolBytes))
		r.Gauge(p+"shadow_pool_buffers", float64(st.ShadowPoolBuffers))
	}
	if st.DegradedRetries+st.DegradedSpills+st.BackpressureFails > 0 {
		r.Counter(p+"resilience.retries", st.DegradedRetries)
		r.Counter(p+"resilience.spills", st.DegradedSpills)
		r.Counter(p+"resilience.backpressure", st.BackpressureFails)
	}
}
