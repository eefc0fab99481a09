package sim

import (
	"fmt"

	"dessched/internal/yds"
)

// State is the policy-facing view of the simulation at an invocation
// instant. Policies drain the waiting queue, bind jobs to cores
// (non-migratory: a job stays on its core until departure), and install
// per-core plans.
type State struct {
	Now   float64
	Cfg   *Config
	Cores []*CoreState

	engine *engine
	queue  []*JobState
	spare  []*JobState // retired queue backing, recycled by DrainQueue
}

// Queue returns the jobs waiting for core assignment, in arrival order.
func (s *State) Queue() []*JobState { return s.queue }

// Budget returns the effective power budget at the invocation instant:
// the nominal budget scaled by any active budget faults. Policies must
// plan against this value, not Cfg.Budget, so power redistribution reacts
// to budget faults at their edges.
func (s *State) Budget() float64 { return s.Cfg.BudgetAt(s.Now) }

// CoreFaultFactor returns the effective speed multiplier of a core at the
// invocation instant: 1 when healthy, 0 during an outage. Policies should
// avoid routing work to cores with factor 0.
func (s *State) CoreFaultFactor(core int) float64 {
	return s.engine.speedFactor(core, s.Now)
}

// AvailableCores reports, per core, whether the core can make progress at
// the invocation instant (fault factor > 0).
func (s *State) AvailableCores() []bool {
	return s.AppendAvailableCores(nil)
}

// AppendAvailableCores is AvailableCores appending into dst[:0], letting
// per-invocation policies reuse one buffer across calls.
func (s *State) AppendAvailableCores(dst []bool) []bool {
	dst = dst[:0]
	for i := range s.Cores {
		dst = append(dst, s.CoreFaultFactor(i) > 0)
	}
	return dst
}

// AssignToCore binds a waiting job to a core. It panics if the job is not
// in the waiting queue or the core index is out of range — both indicate a
// policy bug.
func (s *State) AssignToCore(js *JobState, core int) {
	if core < 0 || core >= len(s.Cores) {
		panic(fmt.Sprintf("sim: core index %d out of range", core))
	}
	idx := -1
	for i, q := range s.queue {
		if q == js {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("sim: job %d is not waiting", js.Job.ID))
	}
	s.queue = append(s.queue[:idx], s.queue[idx+1:]...)
	js.Core = core
	js.Phase = PhaseDispatched
	s.Cores[core].Jobs = append(s.Cores[core].Jobs, js)
	s.engine.queue = s.queue
}

// DrainQueue removes and returns every waiting job, preserving arrival
// order; the policy must then assign or discard each one. The returned
// slice is only valid until the next invocation's DrainQueue: the two
// queue backings ping-pong, so callers must not retain it across
// invocations.
func (s *State) DrainQueue() []*JobState {
	q := s.queue
	stale := s.spare[:cap(s.spare)]
	for i := range stale {
		stale[i] = nil // drop old *JobState refs for the GC
	}
	fresh := stale[:0]
	s.spare = q
	s.queue = fresh
	s.engine.queue = fresh
	return q
}

// Bind attaches a previously drained job to a core (same semantics as
// AssignToCore but without queue membership checks).
func (s *State) Bind(js *JobState, core int) {
	if core < 0 || core >= len(s.Cores) {
		panic(fmt.Sprintf("sim: core index %d out of range", core))
	}
	js.Core = core
	js.Phase = PhaseDispatched
	s.Cores[core].Jobs = append(s.Cores[core].Jobs, js)
}

// Requeue returns a drained job to the waiting queue (used by policies that
// assign only a subset per invocation, e.g. the one-job-per-core baselines).
func (s *State) Requeue(js *JobState) {
	js.Core = -1
	js.Phase = PhasePending
	s.queue = append(s.queue, js)
	s.engine.queue = s.queue
}

// SetPlan installs a new execution plan for a core, replacing any previous
// plan from the current instant onward. Segments must be ordered (none
// ending before the one it follows), non-overlapping, start no earlier than
// Now, and reference jobs assigned to the core; violations panic (policy
// bugs).
func (s *State) SetPlan(core int, segs []yds.Segment) {
	c := s.Cores[core]
	prevEnd := s.Now
	for i, seg := range segs {
		if seg.Start < s.Now-1e-9 {
			panic(fmt.Sprintf("sim: plan segment for job %d starts at %g before now %g", seg.ID, seg.Start, s.Now))
		}
		if seg.Start < prevEnd-1e-9 || (i > 0 && seg.End < prevEnd) {
			panic(fmt.Sprintf("sim: plan segments overlap at job %d", seg.ID))
		}
		if seg.End < seg.Start {
			panic(fmt.Sprintf("sim: inverted segment for job %d", seg.ID))
		}
		// Per-core job sets are small; a linear deadline lookup avoids the
		// per-install map the old validation built.
		d, found := 0.0, false
		for _, js := range c.Jobs {
			if !js.Departed() && js.Job.ID == seg.ID {
				d, found = js.Job.Deadline, true
				break
			}
		}
		if !found {
			panic(fmt.Sprintf("sim: plan references job %d not assigned to core %d", seg.ID, core))
		}
		if seg.End > d+1e-6 {
			panic(fmt.Sprintf("sim: plan runs job %d to %g past its deadline %g", seg.ID, seg.End, d))
		}
		prevEnd = seg.End
	}
	c.plan = segs
	c.planCursor = 0
	c.planVersion++
	s.engine.armPlan(c)
}

// Discard departs a job immediately with its current progress (§V-D: jobs
// without partial-evaluation support that cannot complete, or a running job
// whose recomputed demand is non-positive).
func (s *State) Discard(js *JobState) {
	s.engine.depart(js, s.Now, PolicyDiscard)
}
