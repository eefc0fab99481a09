// Package eventq provides the discrete-event priority queue that drives the
// simulator: a binary min-heap ordered by event time, with FIFO tie-breaking
// by insertion sequence so simulations are fully deterministic.
//
// The queue is generic over its payload type and stores items by value in a
// single backing slice, so steady-state Push/Pop perform no heap allocations
// (the slice grows amortized, like append) and the sift loops compare plain
// struct fields instead of going through an interface. This matters: every
// simulator event passes through the queue's order, so it is on the
// per-event hot path (see docs/PERFORMANCE.md). Reserve and PushSeq let an
// owner keep events outside the heap until they are due without changing
// the pop order, so the heap stays as small as the set of events in flight.
// Timers is the same order over one re-keyable event per slot: the
// simulator keeps each core's next plan-segment end there, so installing a
// new plan replaces the old plan's pending segment end instead of leaving
// it to pop.
package eventq

// Item is a queued event: an opaque payload scheduled at an absolute time.
type Item[P any] struct {
	Time    float64
	Payload P

	seq uint64
}

// Queue is a deterministic time-ordered event queue over payloads of type P.
// The zero value is ready to use. Queue is not safe for concurrent use.
type Queue[P any] struct {
	h   []Item[P]
	seq uint64
}

// Len returns the number of pending events.
func (q *Queue[P]) Len() int { return len(q.h) }

// Push schedules payload at time t. Events pushed with equal times dequeue
// in insertion order.
func (q *Queue[P]) Push(t float64, payload P) {
	q.PushSeq(t, q.seq, payload)
	q.seq++
}

// Reserve claims n consecutive sequence numbers without queueing anything
// and returns the first. A caller that keeps some events outside the queue
// until they become due (a release-ordered arrival list, say) reserves
// their numbers at the instant the queue would have assigned them, then
// pushes each one with PushSeq when it is due: the pop order is then
// exactly that of pushing every event up front.
func (q *Queue[P]) Reserve(n int) uint64 {
	first := q.seq
	q.seq += uint64(n)
	return first
}

// PushSeq schedules payload at time t under a sequence number previously
// claimed with Reserve (or read from an item with Seq).
func (q *Queue[P]) PushSeq(t float64, seq uint64, payload P) {
	q.h = append(q.h, Item[P]{Time: t, Payload: payload, seq: seq})
	q.up(len(q.h) - 1)
}

// Before reports whether the item dequeues before an event at (t, seq) —
// the queue's own order, for merging the queue with an outside event list.
func (it Item[P]) Before(t float64, seq uint64) bool {
	return it.less(&Item[P]{Time: t, seq: seq})
}

// Pop removes and returns the earliest event; ok is false when the queue is
// empty.
func (q *Queue[P]) Pop() (it Item[P], ok bool) {
	n := len(q.h)
	if n == 0 {
		return it, false
	}
	it = q.h[0]
	q.h[0] = q.h[n-1]
	q.h[n-1] = Item[P]{} // release payload references held in the slot
	q.h = q.h[:n-1]
	if n > 1 {
		q.down(0)
	}
	return it, true
}

// Peek returns the earliest event without removing it; ok is false when the
// queue is empty.
func (q *Queue[P]) Peek() (it Item[P], ok bool) {
	if len(q.h) == 0 {
		return it, false
	}
	return q.h[0], true
}

// Seq returns the item's insertion sequence number — the FIFO tie-break
// key. It is exposed so checkpointing can serialize the queue exactly and
// restore the identical pop order.
func (it Item[P]) Seq() uint64 { return it.seq }

// MakeItem builds an item with an explicit sequence number: for restoring a
// serialized queue, or for describing an event its owner keeps outside the
// queue under a reserved number.
func MakeItem[P any](t float64, seq uint64, payload P) Item[P] {
	return Item[P]{Time: t, Payload: payload, seq: seq}
}

// Snapshot returns the queue's internal heap array (in heap order, not
// sorted order) and its sequence counter. The returned slice aliases the
// queue; callers must copy what they retain and must not mutate it.
// Feeding both values back into Restore reproduces the exact queue state,
// including FIFO tie-breaking among equal-time events.
func (q *Queue[P]) Snapshot() (items []Item[P], seq uint64) {
	return q.h, q.seq
}

// Restore replaces the queue's state with the given items and sequence
// counter. The items may come in any order: Restore copies and heapifies
// them (an array already in heap order, as Snapshot returns it, is left
// as is). Pop order depends only on each item's (time, sequence number).
func (q *Queue[P]) Restore(items []Item[P], seq uint64) {
	q.h = append(q.h[:0], items...)
	q.seq = seq
	for i := len(q.h)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// less orders by time, then by insertion sequence (FIFO among ties).
func (a *Item[P]) less(b *Item[P]) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.seq < b.seq
}

// up and down sift through a hole: the moving item is held aside while
// the items it passes shift one level, and is written once where it
// stops — the same comparisons and final layout as swapping at every
// level, with half the copying.
func (q *Queue[P]) up(i int) {
	h := q.h
	x := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !x.less(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
}

func (q *Queue[P]) down(i int) {
	h := q.h
	n := len(h)
	x := h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && h[r].less(&h[l]) {
			least = r
		}
		if !h[least].less(&x) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = x
}
