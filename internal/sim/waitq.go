package sim

// waitQueue is the FIFO of procs blocked on a Cond or Spinlock. It is a
// ring over an array it keeps: popping a proc frees its slot for a later
// push, so a steady wait/wake cycle allocates nothing once the ring holds
// the queue's deepest backlog. Popping by reslicing instead would shrink
// the capacity to zero whenever the queue empties, and the next wait
// would allocate.
type waitQueue struct {
	ring []*Proc // len is zero or a power of two
	head int
	n    int
}

// len returns the number of queued procs.
func (q *waitQueue) len() int { return q.n }

// push appends p at the tail, doubling the ring when it is full.
func (q *waitQueue) push(p *Proc) {
	if q.n == len(q.ring) {
		ring := make([]*Proc, max(2*len(q.ring), 4))
		for i := 0; i < q.n; i++ {
			ring[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
		}
		q.ring, q.head = ring, 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = p
	q.n++
}

// pop removes and returns the oldest proc. The queue must not be empty.
func (q *waitQueue) pop() *Proc {
	p := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return p
}
