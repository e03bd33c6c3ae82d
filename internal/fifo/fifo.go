// Package fifo provides the head-indexed FIFO queue the simulator's
// hot paths use.
package fifo

// Queue is a FIFO that pops by advancing a head index. Popping by
// reslicing (q = q[1:]) strands the popped element's capacity, so the
// next append reallocates; Queue recycles its buffer when it drains
// and compacts it when the dead prefix dominates, so steady push/pop
// churn allocates nothing. The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) { q.buf = append(q.buf, v) }

// Peek returns the head element without removing it; only valid when
// Len() > 0.
func (q *Queue[T]) Peek() T { return q.buf[q.head] }

// Pop removes and returns the head element; only valid when Len() > 0.
// It zeroes the slot it vacates, so the queue does not keep the
// element alive. Pop is kept within the compiler's inlining budget:
// the NoC pops once per flit hop.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	} else if q.head > 32 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
	return v
}
