package workloadspec

import (
	"math/rand/v2"

	"dessched/internal/job"
	"dessched/internal/workload"
)

// Stream is a job.Source that merges the spec's per-class arrival processes
// lazily and numbers the merged jobs densely from 0. Jobs leave in order of
// release, then deadline, then class declaration order; within a class they
// keep their arrival order. Because release is the primary key, every job of
// an earlier window sorts before every job of a later one, so any
// non-decreasing sequence of until values yields the same jobs as Compile.
type Stream struct {
	classes []*workload.Arrivals // in declaration order
	n       int                  // dense ID counter
	buf     []job.Job
}

// NewStream validates the spec and returns a Stream positioned before the
// first arrival of any class.
func NewStream(s *Spec) (*Stream, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	st := &Stream{classes: make([]*workload.Arrivals, len(s.Classes))}
	for ci := range s.Classes {
		seed := classSeed(s, ci)
		st.classes[ci] = workload.NewArrivals(process(s, ci), rand.New(rand.NewPCG(seed, seed^seedMix)))
	}
	return st, nil
}

// Next returns the merged arrivals with Release < until, in Compile order.
// The returned slice is reused by the following Next call; the first call
// sizes it by workload.WindowCap over every class.
func (st *Stream) Next(until float64) []job.Job {
	if st.buf == nil {
		st.buf = make([]job.Job, 0, workload.WindowCap(until, st.classes...))
	}
	st.buf = st.buf[:0]
	for {
		var head *job.Job
		best := 0
		for ci, a := range st.classes {
			if h := a.Head(); h != nil && (head == nil || h.Release < head.Release ||
				h.Release == head.Release && h.Deadline < head.Deadline) {
				head, best = h, ci
			}
		}
		// The least head bounds every class: if it is not before until,
		// no head is.
		if head == nil || head.Release >= until {
			return st.buf
		}
		j := *head
		st.classes[best].Pop()
		j.ID = job.ID(st.n)
		st.n++
		st.buf = append(st.buf, j)
	}
}

// Done reports whether every class is exhausted.
func (st *Stream) Done() bool {
	for _, a := range st.classes {
		if a.Head() != nil {
			return false
		}
	}
	return true
}

var _ job.Source = (*Stream)(nil)
