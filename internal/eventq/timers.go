package eventq

// Timers holds one timer per slot, each stopped or armed at a (time,
// sequence number) key, in an indexed binary min-heap with the Queue's
// order. An owner with at most one pending event per slot keeps it here
// instead of in a Queue: re-keying a slot replaces its event in place, so
// the replaced event never pops. Keys take their sequence numbers from the
// owner's Queue (Reserve), so Item.Before merges the two exactly. The zero
// value holds no slots; Init sizes it. Timers is not safe for concurrent
// use.
type Timers struct {
	h   []timer // armed timers in heap order
	pos []int32 // slot → index in h, -1 while stopped
}

type timer struct {
	time float64
	seq  uint64
	slot int32
}

// Init sizes the set to n slots, all stopped.
func (ts *Timers) Init(n int) {
	ts.h = make([]timer, 0, n)
	ts.pos = make([]int32, n)
	for i := range ts.pos {
		ts.pos[i] = -1
	}
}

// Set arms the slot's timer at (t, seq), replacing the key it held.
func (ts *Timers) Set(slot int, t float64, seq uint64) {
	x := timer{time: t, seq: seq, slot: int32(slot)}
	i := int(ts.pos[slot])
	if i < 0 {
		i = len(ts.h)
		ts.h = append(ts.h, x)
	} else {
		ts.h[i] = x
	}
	ts.fix(i)
}

// Stop disarms the slot's timer; stopping a stopped timer does nothing.
func (ts *Timers) Stop(slot int) {
	i := int(ts.pos[slot])
	if i < 0 {
		return
	}
	ts.pos[slot] = -1
	n := len(ts.h) - 1
	last := ts.h[n]
	ts.h = ts.h[:n]
	if i < n {
		ts.h[i] = last
		ts.fix(i)
	}
}

// Min returns the earliest armed timer's slot and key; ok is false when
// every timer is stopped.
func (ts *Timers) Min() (slot int, t float64, seq uint64, ok bool) {
	if len(ts.h) == 0 {
		return 0, 0, 0, false
	}
	m := &ts.h[0]
	return int(m.slot), m.time, m.seq, true
}

func (a *timer) less(b *timer) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// fix restores the heap order after the entry at i changed.
func (ts *Timers) fix(i int) {
	if i > 0 && ts.h[i].less(&ts.h[(i-1)/2]) {
		ts.up(i)
	} else {
		ts.down(i)
	}
}

// up and down sift through a hole, as the Queue's do, and record every
// position they write in pos.
func (ts *Timers) up(i int) {
	h := ts.h
	x := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !x.less(&h[parent]) {
			break
		}
		h[i] = h[parent]
		ts.pos[h[i].slot] = int32(i)
		i = parent
	}
	h[i] = x
	ts.pos[x.slot] = int32(i)
}

func (ts *Timers) down(i int) {
	h := ts.h
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
		ts.pos[h[i].slot] = int32(i)
		i = least
	}
	h[i] = x
	ts.pos[x.slot] = int32(i)
}
