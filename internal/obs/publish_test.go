package obs

import "testing"

// TestPublishNaming pins the dotted names the daemon's health reply
// carries: each DaemonStats field lands under daemon.*, the store mirror
// under daemon.store.*.
func TestPublishNaming(t *testing.T) {
	r := NewRegistry()
	PublishDaemon(r, DaemonStats{
		Requests: 9, Runs: 4, CacheHits: 5, CorruptRecomputed: 1,
		StoreHits: 5, StoreMisses: 4, Executing: 2, UptimeMs: 1500,
	})
	s := r.Snapshot()
	for name, want := range map[string]uint64{
		"daemon.requests":                 9,
		"daemon.runs":                     4,
		"daemon.cache_hits":               5,
		"daemon.store.corrupt_recomputed": 1,
		"daemon.store.hits":               5,
		"daemon.store.misses":             4,
		"daemon.overloads":                0,
	} {
		if got, ok := s.Counters[name]; !ok || got != want {
			t.Errorf("counter %s = %d (published %v), want %d", name, got, ok, want)
		}
	}
	for name, want := range map[string]float64{
		"daemon.executing": 2, "daemon.waiting": 0, "daemon.uptime_ms": 1500,
	} {
		if got, ok := s.Gauges[name]; !ok || got != want {
			t.Errorf("gauge %s = %v (published %v), want %v", name, got, ok, want)
		}
	}
}

func TestPublishFarm(t *testing.T) {
	r := NewRegistry()
	PublishFarm(r, FarmStats{
		Workers:   4,
		Submitted: 100,
		Executed:  100,
		Steals:    7,
		Panics:    1,
		QueueHWM:  42,
		UtilPct:   []float64{90, 80, 70, 60},
	})
	s := r.Snapshot()
	for name, want := range map[string]uint64{
		"farm.submitted": 100,
		"farm.executed":  100,
		"farm.steals":    7,
		"farm.panics":    1,
	} {
		if s.Counters[name] != want {
			t.Errorf("%s = %d, want %d", name, s.Counters[name], want)
		}
	}
	if s.Gauges["farm.workers"] != 4 || s.Gauges["farm.queue_hwm"] != 42 {
		t.Errorf("farm gauges wrong: %v", s.Gauges)
	}
}
