// Package fifo is the first-in first-out queue behind the fabric's endpoint
// inboxes, the service's admission queues and the uFS workers' request
// queues: a ring consumed by index. A queue that keeps a standing depth
// allocates only while it grows to that depth, where a slice popped with
// q = q[1:] walks its base forward and reallocates on every later append.
package fifo

// Queue is a FIFO of T. The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T // ring storage; len(buf) is zero or a power of two
	head int // index of the oldest element
	n    int // elements queued
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Push appends v and returns its slot, valid until the queue is next
// modified.
func (q *Queue[T]) Push(v T) *T {
	if q.n == len(q.buf) {
		q.grow()
	}
	p := &q.buf[(q.head+q.n)&(len(q.buf)-1)]
	*p = v
	q.n++
	return p
}

// Pop removes and returns the oldest element; ok is false when the queue is
// empty. The vacated slot is zeroed so the queue keeps nothing alive.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	var zero T
	v, q.buf[q.head] = q.buf[q.head], zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v, true
}

// Reset drops every queued element, keeping the storage.
func (q *Queue[T]) Reset() {
	for q.n > 0 {
		q.Pop()
	}
	q.head = 0
}

// grow doubles the ring, unrolling it so the oldest element lands at 0.
func (q *Queue[T]) grow() {
	buf := make([]T, max(4, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = buf, 0
}
