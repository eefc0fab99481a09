package eventq

import (
	"math/rand"
	"slices"
	"testing"
)

// Events held outside the queue under reserved sequence numbers, and
// pushed with PushSeq only once they are next due, pop in exactly the
// order they would have had if pushed up front — ties included, and with
// ordinary pushes interleaved.
func TestReservedEventsPopAsIfPushedUpFront(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(7))
	times := make([]float64, n)
	for i := range times {
		times[i] = float64(rng.Intn(40)) // many exact ties
	}

	var upfront Queue[int]
	for i, at := range times {
		upfront.Push(at, i)
	}

	var q Queue[int]
	base := q.Reserve(n)
	held := make([]int, n) // held events, in (time, seq) order
	for i := range held {
		held[i] = i
	}
	slices.SortStableFunc(held, func(a, b int) int {
		switch {
		case times[a] < times[b]:
			return -1
		case times[a] > times[b]:
			return 1
		}
		return 0
	})
	pop := func() (Item[int], bool) {
		if len(held) > 0 {
			i := held[0]
			if top, ok := q.Peek(); !ok || !top.Before(times[i], base+uint64(i)) {
				q.PushSeq(times[i], base+uint64(i), i)
				held = held[1:]
			}
		}
		return q.Pop()
	}

	for step := 0; ; step++ {
		want, okWant := upfront.Pop()
		got, okGot := pop()
		if okWant != okGot {
			t.Fatalf("step %d: ok %v, want %v", step, okGot, okWant)
		}
		if !okWant {
			break
		}
		if got.Time != want.Time || got.Payload != want.Payload || got.Seq() != want.Seq() {
			t.Fatalf("step %d: popped (%g, %d, seq %d), want (%g, %d, seq %d)",
				step, got.Time, got.Payload, got.Seq(), want.Time, want.Payload, want.Seq())
		}
		if want.Payload%3 == 0 { // follow-up events, some tying with held ones
			at := want.Time + float64(want.Payload%5)
			upfront.Push(at, n+step)
			q.Push(at, n+step)
		}
	}
}

// Restore accepts items in any order: a shuffled snapshot pops exactly
// like the queue it came from.
func TestRestoreHeapifiesAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var q Queue[int]
	for i := 0; i < 500; i++ {
		q.Push(float64(rng.Intn(60)), i)
	}
	items, seq := q.Snapshot()
	shuffled := slices.Clone(items)
	rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	var r Queue[int]
	r.Restore(shuffled, seq)
	for {
		want, okWant := q.Pop()
		got, okGot := r.Pop()
		if okWant != okGot {
			t.Fatalf("ok %v, want %v", okGot, okWant)
		}
		if !okWant {
			break
		}
		if got != want {
			t.Fatalf("popped %+v, want %+v", got, want)
		}
	}
	if r.Reserve(1) != seq {
		t.Error("Restore lost the sequence counter")
	}
}
