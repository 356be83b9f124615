package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// streamEvent is one dispatch seen by the equivalence script: a stream
// entry, a plain callback, or a proc step, with the time it observed.
type streamEvent struct {
	at uint64
	id string
}

// streamScript runs a randomized (fixed-seed) mix of multi-source entry
// schedules, plain callbacks and procs over several Run windows and
// returns every dispatch in order. With useStream each source's entries
// go through one Stream; otherwise every entry is its own
// Engine.Schedule. Times are coarse multiples of 10 so that entries,
// callbacks and proc wakes tie often, and the later windows reach
// entries parked in the far list.
func streamScript(useStream, noFast bool, seed int64) (trace []streamEvent, dispatches uint64, farSeen int) {
	e := NewEngine()
	e.noFastYield = noFast
	record := func(at uint64, format string, args ...any) {
		trace = append(trace, streamEvent{at, fmt.Sprintf(format, args...)})
	}
	// Engine-context randomness: callbacks run one at a time in dispatch
	// order, so the draws match iff the orders match.
	rng := rand.New(rand.NewSource(seed))
	delta := func(r *rand.Rand) uint64 {
		if r.Intn(3) == 0 {
			return 0
		}
		return 10 * uint64(r.Intn(300))
	}

	const sources = 4
	last := make([]uint64, sources)
	next := make([]int, sources)
	streams := make([]*Stream[int], sources)
	var emit func(src int, from uint64, r *rand.Rand)
	deliver := func(src int) func(now uint64, k int) {
		return func(now uint64, k int) {
			record(now, "s%d#%d", src, k)
			if rng.Intn(2) == 0 { // a delivery feeds more traffic, like nic.Source
				emit(rng.Intn(sources), now, rng)
			}
		}
	}
	for s := range streams {
		streams[s] = NewStream(e, deliver(s))
	}
	emit = func(src int, from uint64, r *rand.Rand) {
		at := from + delta(r)
		if at < last[src] {
			at = last[src] + 10*uint64(r.Intn(2))
		}
		last[src] = at
		k := next[src]
		next[src]++
		if useStream {
			streams[src].Schedule(at, k)
			return
		}
		fn := deliver(src)
		e.Schedule(at, func(now uint64) { fn(now, k) })
	}

	for c := 0; c < 12; c++ {
		c := c
		e.Schedule(10*uint64(rng.Intn(400)), func(now uint64) {
			record(now, "cb%d", c)
			emit(rng.Intn(sources), now, rng)
		})
	}
	for i := 0; i < 3; i++ {
		i := i
		sub := rand.New(rand.NewSource(seed ^ int64(i*7919)))
		e.Spawn(fmt.Sprintf("p%d", i), i, 10*uint64(sub.Intn(20)), func(p *Proc) {
			for j := 0; j < 400; j++ {
				switch sub.Intn(4) {
				case 0:
					p.Work("w", 10*uint64(1+sub.Intn(8)))
				case 1:
					p.Sleep(10 * uint64(sub.Intn(30)))
				case 2:
					p.Yield()
				case 3:
					emit(sub.Intn(sources), p.Now(), sub)
					p.Yield()
				}
				record(p.Now(), "p%d:%d", i, j)
			}
		})
	}
	for limit := uint64(700); limit < 40_000; limit += 2_300 {
		e.Run(limit)
		if len(e.far) > 0 {
			farSeen++
		}
	}
	e.Run(^uint64(0) >> 1)
	e.Stop()
	return trace, e.Dispatches(), farSeen
}

// TestStreamMatchesPerEntrySchedule is the determinism guard for
// sim.Stream: keeping only each source's head in the wake queue must
// dispatch exactly what one Engine.Schedule per entry dispatches, under
// both the baton dispatcher and the noFastYield reference scheduler.
// (Dispatch counts differ between the two schedulers — fast yields are
// not dispatches — so counts are compared within one scheduler.)
func TestStreamMatchesPerEntrySchedule(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		ref, _, _ := streamScript(false, true, seed)
		if len(ref) < 1000 {
			t.Fatalf("seed %d: only %d dispatches; the script is too thin to test", seed, len(ref))
		}
		for _, noFast := range []bool{false, true} {
			perEntry, perN, _ := streamScript(false, noFast, seed)
			got, gotN, farSeen := streamScript(true, noFast, seed)
			if farSeen == 0 {
				t.Errorf("seed %d noFast=%v: no stream head ever waited in the far list", seed, noFast)
			}
			if gotN != perN {
				t.Errorf("seed %d noFast=%v: %d dispatches, per-entry Schedule %d", seed, noFast, gotN, perN)
			}
			for name, tr := range map[string][]streamEvent{"stream": got, "per-entry": perEntry} {
				if reflect.DeepEqual(tr, ref) {
					continue
				}
				for i := range tr {
					if i >= len(ref) || tr[i] != ref[i] {
						t.Errorf("seed %d noFast=%v %s: first divergence at event %d: %+v", seed, noFast, name, i, tr[i])
						break
					}
				}
				t.Errorf("seed %d noFast=%v %s: trace of %d events differs from the reference (%d)",
					seed, noFast, name, len(tr), len(ref))
			}
		}
	}
}

func TestStreamScheduleEarlierThanLastPanics(t *testing.T) {
	e := NewEngine()
	s := NewStream(e, func(uint64, int) {})
	s.Schedule(100, 1)
	s.Schedule(100, 2) // equal times are fine
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Schedule did not panic")
		}
	}()
	s.Schedule(99, 3)
}

func TestStreamNilFnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewStream(nil) did not panic")
		}
	}()
	NewStream[int](NewEngine(), nil)
}

// TestStreamRingStaysBounded runs a steady stream that never drains —
// every delivery schedules one more entry, 8 in flight — and checks that
// the ring stays at its first size instead of growing with the run.
func TestStreamRingStaysBounded(t *testing.T) {
	e := NewEngine()
	delivered := 0
	var s *Stream[int]
	s = NewStream(e, func(now uint64, k int) {
		if k != delivered {
			t.Fatalf("delivered %d, want %d (FIFO order)", k, delivered)
		}
		delivered++
		s.Schedule(now+80, k+8)
	})
	for k := 0; k < 8; k++ {
		s.Schedule(uint64(10*k), k)
	}
	e.Run(1_000_000)
	if delivered < 90_000 {
		t.Fatalf("delivered %d entries, want a long run", delivered)
	}
	if s.Len() != 8 {
		t.Errorf("Len = %d, want 8 in flight", s.Len())
	}
	if len(s.ring) > 16 {
		t.Errorf("ring grew to %d slots for 8 entries in flight", len(s.ring))
	}
}
