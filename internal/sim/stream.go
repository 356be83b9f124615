package sim

// Stream is a FIFO of engine callbacks at nondecreasing times, such as
// the frames of one link in flight. Only its earliest entry sits in the
// engine's wake queue; the rest wait in the stream's own ring. A source
// with thousands of frames in flight therefore costs the wake heap one
// entry instead of thousands.
//
// Dispatch order is exactly what one Engine.Schedule per entry gives:
// every entry takes its seq from the engine when it is scheduled, and
// when the head fires the next entry enters the wake queue (or the far
// list, beyond the current Run window) with that original seq. Entries
// behind the head are never earlier than it, so the global (at, seq)
// minimum is always in the wake queue.
type Stream[T any] struct {
	eng  *Engine
	fn   func(now uint64, v T)
	fire func(now uint64) // cached: one closure per stream, not per entry
	ring []streamEntry[T] // len is zero or a power of two
	head int
	n    int
}

type streamEntry[T any] struct {
	at, seq uint64
	v       T
}

// NewStream returns an empty stream whose entries are delivered to fn in
// engine context, with the same rules as Schedule callbacks.
func NewStream[T any](e *Engine, fn func(now uint64, v T)) *Stream[T] {
	if fn == nil {
		panic("sim: NewStream with nil fn")
	}
	s := &Stream[T]{eng: e, fn: fn}
	s.fire = s.dispatch
	return s
}

// Len returns the number of scheduled entries that have not fired yet.
func (s *Stream[T]) Len() int { return s.n }

// Schedule appends v for delivery at virtual time at (clamped to Now, as
// in Engine.Schedule). Scheduling earlier than the last pending entry is
// a caller bug and panics: the stream would have to reorder.
func (s *Stream[T]) Schedule(at uint64, v T) {
	e := s.eng
	if at < e.now {
		at = e.now
	}
	mask := len(s.ring) - 1
	if s.n > 0 {
		if last := &s.ring[(s.head+s.n-1)&mask]; at < last.at {
			panic("sim: Stream.Schedule earlier than its last pending entry")
		}
	}
	if s.n == len(s.ring) {
		s.resize(max(2*len(s.ring), minStreamRing))
		mask = len(s.ring) - 1
	}
	seq := e.seq
	e.seq++
	s.ring[(s.head+s.n)&mask] = streamEntry[T]{at: at, seq: seq, v: v}
	s.n++
	if s.n == 1 {
		e.place(wakeItem{at: at, seq: seq, fn: s.fire})
	}
}

// minStreamRing is the ring size a stream's first entry allocates.
const minStreamRing = 16

// Reserve sizes the ring to hold n pending entries without growing, for a
// stream whose depth has a known bound, such as a source's frames in
// flight, which its receiver's ring caps.
func (s *Stream[T]) Reserve(n int) {
	size := max(len(s.ring), minStreamRing)
	for size < n {
		size *= 2
	}
	if size > len(s.ring) {
		s.resize(size)
	}
}

// resize moves the pending entries to the front of a ring of size entries
// (a power of two, at least s.n).
func (s *Stream[T]) resize(size int) {
	ring := make([]streamEntry[T], size)
	for i := 0; i < s.n; i++ {
		ring[i] = s.ring[(s.head+i)&(len(s.ring)-1)]
	}
	s.ring, s.head = ring, 0
}

// dispatch is the head's wake callback: it queues the next entry with
// its original seq, then delivers the head. fn may Schedule on the same
// stream; an emptied stream re-enters the wake queue from Schedule.
func (s *Stream[T]) dispatch(now uint64) {
	mask := len(s.ring) - 1
	v := s.ring[s.head].v
	s.ring[s.head] = streamEntry[T]{} // release references held by v
	s.head = (s.head + 1) & mask
	s.n--
	if s.n > 0 {
		next := &s.ring[s.head]
		s.eng.place(wakeItem{at: next.at, seq: next.seq, fn: s.fire})
	}
	s.fn(now, v)
}
