package lib

import "errors"

// ErrQueueFull is returned by Queue.Enqueue when the queue is at capacity.
// Path source queues are bounded so that a flood cannot consume unbounded
// memory before the path's thread runs — overflow is dropped at the edge,
// charged to no one, which is itself part of the defense story.
var ErrQueueFull = errors.New("lib: queue full")

// minQueueRing is the ring size a queue allocates on its first Enqueue.
const minQueueRing = 4

// Queue is a bounded FIFO ring buffer. The zero value is unusable; use
// MakeQueue or NewQueue. The ring is allocated on the first Enqueue and
// doubles as items arrive, up to the bound, so an idle queue costs no
// storage: each path holds one as its work queue, and most paths never
// queue more than a few items.
type Queue struct {
	items []any
	head  int
	count int
	bound int
}

// MakeQueue returns a queue holding at most capacity items, for
// embedding by value.
func MakeQueue(capacity int) Queue {
	if capacity <= 0 {
		panic("lib: queue capacity must be positive")
	}
	return Queue{bound: capacity}
}

// NewQueue returns a queue holding at most capacity items.
func NewQueue(capacity int) *Queue {
	q := MakeQueue(capacity)
	return &q
}

// Len returns the number of queued items.
func (q *Queue) Len() int { return q.count }

// Slots returns the ring slots currently allocated: zero before the
// first Enqueue and after Flush, never more than the bound.
func (q *Queue) Slots() int { return len(q.items) }

// Enqueue appends v, or returns ErrQueueFull.
func (q *Queue) Enqueue(v any) error {
	if q.count == q.bound {
		return ErrQueueFull
	}
	if q.count == len(q.items) {
		q.grow()
	}
	q.items[(q.head+q.count)%len(q.items)] = v
	q.count++
	return nil
}

// grow doubles the ring (capped at the bound), unwrapping the queued
// items to the front of the new ring so FIFO order is kept.
func (q *Queue) grow() {
	n := min(max(2*len(q.items), minQueueRing), q.bound)
	items := make([]any, n)
	tail := copy(items, q.items[q.head:])
	copy(items[tail:], q.items[:q.head])
	q.items = items
	q.head = 0
}

// Dequeue removes and returns the oldest item; ok is false when empty.
func (q *Queue) Dequeue() (v any, ok bool) {
	if q.count == 0 {
		return nil, false
	}
	v = q.items[q.head]
	q.items[q.head] = nil
	q.head = (q.head + 1) % len(q.items)
	q.count--
	return v, true
}

// Flush empties the queue, calling fn (if non-nil) on each dropped item so
// owners can release per-item resources, then releases the ring; a later
// Enqueue allocates a fresh one.
func (q *Queue) Flush(fn func(any)) {
	for {
		v, ok := q.Dequeue()
		if !ok {
			break
		}
		if fn != nil {
			fn(v)
		}
	}
	q.items = nil
	q.head = 0
}
