package sim

import (
	"testing"

	"dessched/internal/job"
	"dessched/internal/power"
	"dessched/internal/trace"
	"dessched/internal/workload"
	"dessched/internal/yds"
)

// panicPolicy drives one specific State call sequence for API tests.
type panicPolicy struct {
	planOnce func(now float64, s *State)
	done     bool
}

func (p *panicPolicy) Name() string { return "panic-probe" }

func (p *panicPolicy) Plan(now float64, s *State) {
	if p.done {
		return
	}
	p.done = true
	p.planOnce(now, s)
}

func runProbe(t *testing.T, f func(now float64, s *State)) (panicked any) {
	t.Helper()
	defer func() { panicked = recover() }()
	cfg := testCfg(2)
	jobs := []job.Job{{ID: 0, Release: 0, Deadline: 0.15, Demand: 100, Partial: true}}
	_, err := Run(cfg, jobs, &panicPolicy{planOnce: f})
	if err != nil {
		t.Fatal(err)
	}
	return nil
}

func TestSetPlanRejectsPastDeadline(t *testing.T) {
	p := runProbe(t, func(now float64, s *State) {
		js := s.Queue()[0]
		s.AssignToCore(js, 0)
		s.SetPlan(0, []yds.Segment{{ID: 0, Start: now, End: 0.5, Speed: 1}})
	})
	if p == nil {
		t.Fatal("plan past deadline accepted")
	}
}

func TestSetPlanRejectsUnassignedJob(t *testing.T) {
	p := runProbe(t, func(now float64, s *State) {
		s.SetPlan(0, []yds.Segment{{ID: 0, Start: now, End: 0.1, Speed: 1}})
	})
	if p == nil {
		t.Fatal("plan for unassigned job accepted")
	}
}

// A segment inside the overlap tolerance may not end before the segment it
// follows: segment ends pop in plan order.
func TestSetPlanRejectsNestedSegment(t *testing.T) {
	p := runProbe(t, func(now float64, s *State) {
		js := s.Queue()[0]
		s.AssignToCore(js, 0)
		end := now + 0.01
		s.SetPlan(0, []yds.Segment{{ID: 0, Start: now, End: end, Speed: 1}, {ID: 0, Start: end - 5e-10, End: end - 5e-10, Speed: 1}})
	})
	if p == nil {
		t.Fatal("segment ending before its predecessor accepted")
	}
}

func TestSetPlanRejectsPast(t *testing.T) {
	p := runProbe(t, func(now float64, s *State) {
		js := s.Queue()[0]
		s.AssignToCore(js, 0)
		s.SetPlan(0, []yds.Segment{{ID: 0, Start: now - 1, End: now + 0.01, Speed: 1}})
	})
	if p == nil {
		t.Fatal("plan in the past accepted")
	}
}

func TestAssignToCoreBounds(t *testing.T) {
	p := runProbe(t, func(now float64, s *State) {
		s.AssignToCore(s.Queue()[0], 99)
	})
	if p == nil {
		t.Fatal("out-of-range core accepted")
	}
}

func TestAssignToCoreRequiresQueued(t *testing.T) {
	p := runProbe(t, func(now float64, s *State) {
		js := s.Queue()[0]
		s.AssignToCore(js, 0)
		s.AssignToCore(js, 1) // no longer waiting
	})
	if p == nil {
		t.Fatal("double assignment accepted")
	}
}

func TestDrainBindRequeueCycle(t *testing.T) {
	var sawRequeued bool
	cfg := testCfg(2)
	jobs := []job.Job{
		{ID: 0, Release: 0, Deadline: 0.15, Demand: 100, Partial: true},
		{ID: 1, Release: 0, Deadline: 0.15, Demand: 100, Partial: true},
	}
	policy := &requeuePolicy{sawRequeued: &sawRequeued}
	res, err := Run(cfg, jobs, policy)
	if err != nil {
		t.Fatal(err)
	}
	if !sawRequeued {
		t.Error("requeued job never came back through the queue")
	}
	if res.Completed != 2 {
		t.Errorf("result = %+v", res)
	}
}

// requeuePolicy drains both jobs, binds the first, requeues the second, and
// on the next invocation binds whatever is back in the queue.
type requeuePolicy struct {
	sawRequeued *bool
	invocations int
}

func (p *requeuePolicy) Name() string { return "requeue-probe" }

func (p *requeuePolicy) Plan(now float64, s *State) {
	p.invocations++
	if p.invocations == 1 && len(s.Queue()) == 2 {
		drained := s.DrainQueue()
		s.Bind(drained[0], 0)
		s.Requeue(drained[1])
	} else {
		for _, js := range append([]*JobState(nil), s.Queue()...) {
			*p.sawRequeued = true
			s.AssignToCore(js, 1)
		}
	}
	for _, c := range s.Cores {
		var segs []yds.Segment
		cur := now
		for _, r := range c.ReadyJobs(now) {
			if r.Deadline <= now || r.Remaining() <= 0 {
				continue
			}
			end := cur + r.Remaining()/power.Rate(2)
			if end > r.Deadline {
				end = r.Deadline
			}
			if end > cur {
				segs = append(segs, yds.Segment{ID: r.ID, Start: cur, End: end, Speed: 2})
				cur = end
			}
		}
		s.SetPlan(c.Index, segs)
	}
}

// Every executed slice must lie inside its job's window and respect the
// global speed implied by the budget — checked through the recorder on a
// real DES run.
func TestExecutionStaysInsideJobWindows(t *testing.T) {
	wl := workload.DefaultConfig(80)
	wl.Duration = 8
	wl.Seed = 9
	jobs, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	windows := make(map[job.ID][2]float64, len(jobs))
	for _, j := range jobs {
		windows[j.ID] = [2]float64{j.Release, j.Deadline}
	}
	cfg := PaperConfig()
	cfg.Cores = 4
	cfg.Budget = 80
	rec := trace.New(4)
	cfg.Recorder = rec
	if _, err := Run(cfg, jobs, &fifoFourPolicy{}); err != nil {
		t.Fatal(err)
	}
	for _, e := range rec.Entries {
		w := windows[e.JobID]
		if e.Start < w[0]-1e-9 || e.End > w[1]+1e-6 {
			t.Fatalf("job %d executed [%g, %g] outside window [%g, %g]", e.JobID, e.Start, e.End, w[0], w[1])
		}
	}
}

// fifoFourPolicy spreads jobs round-robin over all cores at 2 GHz.
type fifoFourPolicy struct{ next int }

func (p *fifoFourPolicy) Name() string { return "fifo4" }

func (p *fifoFourPolicy) Plan(now float64, s *State) {
	for _, js := range s.DrainQueue() {
		s.Bind(js, p.next)
		p.next = (p.next + 1) % len(s.Cores)
	}
	for _, c := range s.Cores {
		var segs []yds.Segment
		cur := now
		for _, r := range c.ReadyJobs(now) {
			if r.Deadline <= now || r.Remaining() <= 0 {
				continue
			}
			start := cur
			end := start + r.Remaining()/power.Rate(2)
			if end > r.Deadline {
				end = r.Deadline
			}
			if end > start {
				segs = append(segs, yds.Segment{ID: r.ID, Start: start, End: end, Speed: 2})
				cur = end
			}
		}
		s.SetPlan(c.Index, segs)
	}
}

// timerProbe plans like fifoPolicy and checks what each install did to the
// engine's event set.
type timerProbe struct {
	fifoPolicy
	t             *testing.T
	empty, filled int
}

func (p *timerProbe) Plan(now float64, s *State) {
	e := s.engine
	heap, first := e.events.Len(), e.events.Reserve(0)
	p.fifoPolicy.Plan(now, s)
	plan := s.Cores[0].Plan()
	if n := e.events.Len() - heap; n != 0 {
		p.t.Errorf("install at %g pushed %d events onto the heap", now, n)
	}
	if next := e.events.Reserve(0); next != first+uint64(len(plan)) {
		p.t.Errorf("install at %g of %d segments reserved %d sequence numbers", now, len(plan), next-first)
	}
	slot, at, seq, armed := e.timers.Min()
	switch {
	case armed != (len(plan) > 0):
		p.t.Errorf("install at %g of %d segments: timer armed %v", now, len(plan), armed)
	case armed && (slot != 0 || at != plan[0].End || seq != first):
		p.t.Errorf("install at %g: timer (slot %d, %g, seq %d), want (0, %g, seq %d)", now, slot, at, seq, plan[0].End, first)
	}
	if len(plan) == 0 {
		p.empty++
	} else {
		p.filled++
	}
}

// A plan install pushes nothing onto the event heap. It reserves one
// sequence number per segment and re-keys the core's timer to the first
// segment's end under the first of them; an empty plan stops the timer.
func TestSetPlanRekeysTimer(t *testing.T) {
	p := &timerProbe{fifoPolicy: fifoPolicy{speed: 1.5}, t: t}
	cfg := testCfg(1)
	cfg.Triggers = Triggers{IdleCore: true, Quantum: 0.25} // idle ticks install empty plans
	jobs := []job.Job{
		{ID: 0, Release: 0, Deadline: 0.15, Demand: 100, Partial: true},
		{ID: 1, Release: 0, Deadline: 0.2, Demand: 50, Partial: true},
		{ID: 2, Release: 1, Deadline: 1.15, Demand: 100, Partial: true},
	}
	if _, err := Run(cfg, jobs, p); err != nil {
		t.Fatal(err)
	}
	if p.empty == 0 || p.filled == 0 {
		t.Errorf("%d empty and %d non-empty installs, want both", p.empty, p.filled)
	}
}

// pendingEndProbe plans like fifoFourPolicy and checks the install made at
// the instant core 0's last segment ends, before that end pops.
type pendingEndProbe struct {
	fifoFourPolicy
	t    *testing.T
	at   float64
	seen bool
}

func (p *pendingEndProbe) Plan(now float64, s *State) {
	c := s.Cores[0]
	pending := c.segNext < len(c.plan) && c.plan[c.segNext].End == now
	p.fifoFourPolicy.Plan(now, s)
	if now != p.at {
		return
	}
	p.seen = true
	if !pending || len(c.Plan()) != 0 {
		p.t.Fatalf("at %g: segment end pending %v, plan of %d segments; want an empty install over a pending end",
			now, pending, len(c.Plan()))
	}
}

// An empty plan over a segment end that is due at this instant but has not
// popped yet still stops the core's timer, so that end never pops. Job 1
// arrives exactly when job 0's segment ends; its arrival holds the older
// sequence number, pops first and invokes the policy, which finds job 0
// complete and core 0 jobless.
func TestSetPlanEmptyStopsPendingSegmentEnd(t *testing.T) {
	p := &pendingEndProbe{t: t, at: 0.1}
	cfg := testCfg(2)
	cfg.Triggers = Triggers{OnArrival: true}
	jobs := []job.Job{
		{ID: 0, Release: 0, Deadline: 0.15, Demand: 200, Partial: true}, // 0.1 s at 2 GHz
		{ID: 1, Release: 0.1, Deadline: 0.25, Demand: 100, Partial: true},
	}
	st, err := Start(cfg, jobs, p)
	if err != nil {
		t.Fatal(err)
	}
	pops := 0
	err = DriveLivePops(st, func(lp LivePop) {
		if lp.Kind == int(evkSegment) && lp.Core == 0 {
			pops++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.seen {
		t.Fatal("the policy was never invoked at the segment end")
	}
	if pops != 0 {
		t.Errorf("core 0's replaced segment end popped %d times", pops)
	}
	res, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Errorf("%d jobs completed, want 2", res.Completed)
	}
}
