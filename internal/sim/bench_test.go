package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEngineFence measures the fence hot path: one proc doing
// Work+yield with nothing else pending, which should take the same-proc
// fast path (no switch to Run, no heap traffic, zero allocations per op).
func BenchmarkEngineFence(b *testing.B) {
	e := NewEngine()
	e.Spawn("w", 0, 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Work("bench", 10)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(^uint64(0))
}

// BenchmarkEngineFenceContended measures the slow path: two procs at
// interleaved timestamps, so every fence goes through the wake queue and
// a coroutine switch to Run and on to the other proc.
func BenchmarkEngineFenceContended(b *testing.B) {
	e := NewEngine()
	for c := 0; c < 2; c++ {
		e.Spawn("w", c, 0, func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Work("bench", 10)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(^uint64(0))
}

// BenchmarkEngineDispatch measures the many-proc scheduling cost that
// dominates 64/128-core simulations: P procs at interleaved timestamps,
// every fence a cross-proc switch through Run (two coroutine switches,
// wake heap at depth P). ns/op is per fence of
// one proc; the b.N work is split across procs so total dispatches stay
// comparable between sizes.
func BenchmarkEngineDispatch(b *testing.B) {
	for _, procs := range []int{16, 64, 128} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			e := NewEngine()
			per := b.N/procs + 1
			for c := 0; c < procs; c++ {
				e.Spawn("w", c, 0, func(p *Proc) {
					for i := 0; i < per; i++ {
						p.Work("bench", 10)
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run(^uint64(0))
		})
	}
}

// BenchmarkEngineTimerChurn measures the arm/cancel pattern of the
// flush-queue timers (dmaapi deferred invalidation): every op schedules a
// timer, cancels it, and lets lazy deletion discard it.
func BenchmarkEngineTimerChurn(b *testing.B) {
	e := NewEngine()
	e.Spawn("w", 0, 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			t := e.ScheduleTimer(p.Now()+1000, func(uint64) {})
			t.Cancel()
			p.Sleep(10)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(^uint64(0))
}

// BenchmarkEngineStream measures the in-flight-frame pattern of
// nic.Source: 16 sources with 256 entries in flight each, where every
// delivery schedules the source's next entry. "schedule" gives each
// entry its own Engine.Schedule, so the wake heap holds all 4096;
// "stream" keeps each source's entries in a Stream, so the heap holds
// only the 16 heads. ns/op is per delivered entry.
func BenchmarkEngineStream(b *testing.B) {
	const sources, inflight, gap = 16, 256, 100
	horizon := uint64(inflight * gap)
	b.Run("schedule", func(b *testing.B) {
		e := NewEngine()
		left := b.N
		for s := 0; s < sources; s++ {
			var cb func(now uint64)
			cb = func(now uint64) {
				if left > 0 {
					left--
					e.Schedule(now+horizon, cb)
				}
			}
			for k := 0; k < inflight; k++ {
				e.Schedule(uint64(k*gap+s), cb)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		e.Run(^uint64(0))
	})
	b.Run("stream", func(b *testing.B) {
		e := NewEngine()
		left := b.N
		for s := 0; s < sources; s++ {
			var st *Stream[int]
			st = NewStream(e, func(now uint64, v int) {
				if left > 0 {
					left--
					st.Schedule(now+horizon, v)
				}
			})
			for k := 0; k < inflight; k++ {
				st.Schedule(uint64(k*gap+s), k)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		e.Run(^uint64(0))
	})
}
