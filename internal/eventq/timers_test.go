package eventq

import (
	"math/rand"
	"testing"
)

// A randomized model test: arm, re-key, stop and pop over a few slots,
// with keys drawn from a small set of times (so many tie) and sequence
// numbers from a Queue's Reserve counter, as the simulator draws them. After
// every operation Min must name the brute-force minimum in (time, seq)
// order.
func TestTimersMatchBruteForceMinimum(t *testing.T) {
	const slots = 9
	type key struct {
		armed bool
		time  float64
		seq   uint64
	}
	rng := rand.New(rand.NewSource(3))
	var q Queue[struct{}]
	var ts Timers
	ts.Init(slots)
	model := make([]key, slots)
	for step := 0; step < 20000; step++ {
		slot := rng.Intn(slots)
		switch op := rng.Intn(10); {
		case op < 5: // arm or re-key; a few numbers at once, like a plan install
			first := q.Reserve(1 + rng.Intn(3))
			at := float64(rng.Intn(12))
			ts.Set(slot, at, first)
			model[slot] = key{true, at, first}
		case op < 7:
			ts.Stop(slot)
			model[slot] = key{}
		default: // pop: move the earliest timer on or stop it
			s, at, _, ok := ts.Min()
			if !ok {
				break
			}
			if rng.Intn(2) == 0 {
				next := at + float64(rng.Intn(3))
				seq := q.Reserve(1)
				ts.Set(s, next, seq)
				model[s] = key{true, next, seq}
			} else {
				ts.Stop(s)
				model[s] = key{}
			}
		}

		want := -1
		for i, k := range model {
			if !k.armed {
				continue
			}
			if w := model[max(want, 0)]; want < 0 || k.time < w.time || (k.time == w.time && k.seq < w.seq) {
				want = i
			}
		}
		s, at, seq, ok := ts.Min()
		if ok != (want >= 0) {
			t.Fatalf("step %d: Min ok %v, want %v", step, ok, want >= 0)
		}
		if ok && (s != want || at != model[want].time || seq != model[want].seq) {
			t.Fatalf("step %d: Min slot %d at (%g, %d), want slot %d at (%g, %d)",
				step, s, at, seq, want, model[want].time, model[want].seq)
		}
	}
}

// Re-keying and popping a timer allocates nothing once the set is sized.
func TestTimersZeroAlloc(t *testing.T) {
	var ts Timers
	ts.Init(16)
	var seq uint64
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			seq++
			ts.Set(i, float64(seq%7), seq)
		}
		for s, _, _, ok := ts.Min(); ok; s, _, _, ok = ts.Min() {
			ts.Stop(s)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per run, want 0", allocs)
	}
}
