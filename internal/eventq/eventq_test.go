package eventq

import (
	"math/rand"
	"sort"
	"testing"
)

func TestOrdering(t *testing.T) {
	var q Queue[string]
	q.Push(3, "c")
	q.Push(1, "a")
	q.Push(2, "b")
	want := []string{"a", "b", "c"}
	for _, w := range want {
		it, ok := q.Pop()
		if !ok || it.Payload != w {
			t.Fatalf("pop order wrong, got %v want %s", it, w)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty should report !ok")
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 10; i++ {
		q.Push(5, i)
	}
	for i := 0; i < 10; i++ {
		it, ok := q.Pop()
		if !ok || it.Payload != i {
			t.Fatalf("tie-break order: got %v want %d", it.Payload, i)
		}
	}
}

func TestPeek(t *testing.T) {
	var q Queue[string]
	if _, ok := q.Peek(); ok {
		t.Error("Peek on empty should report !ok")
	}
	q.Push(2, "x")
	q.Push(1, "y")
	if it, _ := q.Peek(); it.Payload != "y" {
		t.Error("Peek should return earliest")
	}
	if q.Len() != 2 {
		t.Errorf("Len = %d, want 2 (peek must not remove)", q.Len())
	}
}

func TestRandomizedHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q Queue[int]
	var times []float64
	for i := 0; i < 2000; i++ {
		tm := rng.Float64() * 100
		times = append(times, tm)
		q.Push(tm, i)
	}
	sort.Float64s(times)
	for i, want := range times {
		it, _ := q.Pop()
		if it.Time != want {
			t.Fatalf("pop %d: time %v, want %v", i, it.Time, want)
		}
	}
}

func TestInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q Queue[int]
	last := -1.0
	pushed, popped := 0, 0
	for i := 0; i < 5000; i++ {
		if q.Len() == 0 || rng.Intn(2) == 0 {
			// Never push into the past relative to what we've popped.
			q.Push(last+rng.Float64(), i)
			pushed++
		} else {
			it, _ := q.Pop()
			if it.Time < last {
				t.Fatalf("time went backwards: %v < %v", it.Time, last)
			}
			last = it.Time
			popped++
		}
	}
	if pushed-popped != q.Len() {
		t.Errorf("accounting: pushed %d popped %d len %d", pushed, popped, q.Len())
	}
}

// Bulk insert then full drain must come out in exact (time, insertion)
// order even at scale, including runs of equal-time events.
func TestBulkInsertDrainStableOrder(t *testing.T) {
	const n = 50000
	rng := rand.New(rand.NewSource(3))
	type tagged struct {
		id int
	}
	var q Queue[tagged]
	times := make([]float64, n)
	for i := 0; i < n; i++ {
		// Coarse-grained times force many exact ties.
		times[i] = float64(rng.Intn(500))
		q.Push(times[i], tagged{id: i})
	}
	lastTime, lastID := -1.0, -1
	for i := 0; i < n; i++ {
		it, ok := q.Pop()
		if !ok {
			t.Fatalf("queue dry after %d pops, want %d", i, n)
		}
		if it.Time < lastTime {
			t.Fatalf("pop %d: time %v before %v", i, it.Time, lastTime)
		}
		if it.Time == lastTime && it.Payload.id < lastID {
			t.Fatalf("pop %d: equal-time events out of insertion order (%d after %d)",
				i, it.Payload.id, lastID)
		}
		if times[it.Payload.id] != it.Time {
			t.Fatalf("pop %d: payload %d carries time %v, pushed at %v",
				i, it.Payload.id, it.Time, times[it.Payload.id])
		}
		lastTime, lastID = it.Time, it.Payload.id
	}
	if q.Len() != 0 {
		t.Fatalf("len %d after full drain", q.Len())
	}
}

// Interleaved churn at scale: rolling windows of pushes and pops, as the
// simulator produces when every invocation replaces per-core plans. Checks
// determinism by replaying the identical operation sequence.
func TestInterleavedChurnDeterministic(t *testing.T) {
	run := func() []int {
		rng := rand.New(rand.NewSource(99))
		var q Queue[int]
		var order []int
		id := 0
		now := 0.0
		for step := 0; step < 20000; step++ {
			switch {
			case q.Len() == 0 || rng.Intn(3) > 0:
				// Bursts of pushes with frequent ties at the current time.
				t := now
				if rng.Intn(2) == 0 {
					t += float64(rng.Intn(10))
				}
				q.Push(t, id)
				id++
			default:
				it, _ := q.Pop()
				now = it.Time
				order = append(order, it.Payload)
			}
		}
		for q.Len() > 0 {
			it, _ := q.Pop()
			order = append(order, it.Payload)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at pop %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Steady-state Push/Pop on a warmed queue must not allocate: every event
// the simulator handles passes through the queue, so a per-push allocation
// would dominate its allocations per event.
func TestSteadyStateZeroAlloc(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 1024; i++ {
		q.Push(float64(i%37), i)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		it, _ := q.Pop()
		q.Push(it.Time+1, it.Payload)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Push/Pop allocates %.1f objects per op, want 0", allocs)
	}
}
