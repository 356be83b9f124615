package nic

import (
	"repro/internal/cycles"
)

// Wire models one direction of the 40 Gb/s link: frames occupy the wire
// serially for their serialization delay, shared by all queues.
type Wire struct {
	costs    *cycles.Costs
	busyTill uint64

	// Stats
	Frames uint64
	Bytes  uint64
}

// NewWire creates a wire using the cost model's link speed.
func NewWire(costs *cycles.Costs) *Wire {
	return &Wire{costs: costs}
}

// frameOverhead is the per-frame protocol overhead on the wire beyond the
// TCP payload (ethernet + IP + TCP headers).
const frameOverhead = 58

// Reserve schedules an n-payload-byte frame onto the wire at or after
// `now`, returning the time its last bit leaves.
func (w *Wire) Reserve(now uint64, n int) uint64 {
	start := now
	if w.busyTill > start {
		start = w.busyTill
	}
	end := start + w.costs.WireCycles(n+frameOverhead)
	w.busyTill = end
	w.Frames++
	w.Bytes += uint64(n)
	return end
}

// Utilization returns the fraction of the window the wire was busy,
// assuming back-to-back reservation from time zero.
func (w *Wire) Utilization(window uint64) float64 {
	if window == 0 {
		return 0
	}
	// Bytes ever sent times per-byte wire time, over the window.
	busy := (w.Bytes + w.Frames*frameOverhead) * 8 * cycles.Hz / (w.costs.WireGbps * 1_000_000_000)
	u := float64(busy) / float64(window)
	if u > 1 {
		u = 1
	}
	return u
}
