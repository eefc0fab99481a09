package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"time"

	"dessched/internal/dist"
	"dessched/internal/job"
	"dessched/internal/qeopt"
	"dessched/internal/sim"
	"dessched/internal/yds"
)

// The traced pass measures the program from outside it. It wraps the
// scheduling policy (one wrapper per server on fleets) and the job source,
// times every Plan and Next call, and after each Plan replays DES's C-DVFS
// step sequence — C-RR, Energy-OPT requests, the budget check,
// water-filling, Online-QE — through each layer's public function on the
// inputs that invocation saw, timing every call. Each replayed plan is
// compared bit for bit with the plan DES installed, so the layer times
// belong to the work DES really did.
//
// Spans are kept in memory and written when the run ends: one "repeat" root
// per repeat with "setup", "probe" and "run" children; inside traced
// runs, "plan" per invocation with the replayed layer calls beneath it, and
// "source.next" per source pull. Retention stops at spanCap spans per name;
// the aggregates cover every call.

// spanCap bounds retained spans per name.
const spanCap = 4096

// Span names, indexed for the per-name retention counters.
const (
	spRepeat = iota
	spSetup
	spProbe
	spRun
	spPlan
	spRequest
	spWaterfill
	spOnline
	spSchedule
	spNext
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"repeat", "setup", "probe", "run", "plan",
	"yds.request", "dist.waterfill", "qeopt.online", "yds.schedule", "source.next",
}

// span is one recorded interval; Start and End are nanoseconds since the
// tracer started, Parent is the index of the parent span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Run    int32  `json:"run"`
}

// layerStats aggregates the traced repeats.
type layerStats struct {
	Repeats int

	WallNs   int64 // traced run wall time
	PlanNs   int64 // inside the wrapped Plan calls
	ExtraNs  int64 // the benchmark's own work inside the wrapper: capture, replay, compare
	SourceNs int64 // inside the wrapped Next calls

	Invocations int
	BudgetBound int // invocations that took the water-fill + Online-QE path
	PlanNsEach  []float64

	RequestCalls, RequestTasks int
	RequestNs                  int64
	ScheduleCalls              int
	ScheduleNs                 int64
	WaterfillCalls, MemoHits   int
	WaterfillNs                int64
	OnlineCalls, OnlineReady   int
	OnlineNs                   int64
	NextCalls                  int

	Mismatches  int
	ServerPlans []int64 // Plan time per server, summed over repeats
}

// tracer records spans and layer aggregates. A traced run is forced to one
// worker, so a tracer is only ever used from one goroutine.
type tracer struct {
	base  time.Time
	run   int32
	spans []span
	kept  [nSpanNames]int
	cur   int32 // the current repeat's "run" span, parent of plan and source spans
	stats layerStats
	next  int // servers wrapped so far in the current repeat
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// now returns nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// span records an interval unless its name is over the retention cap or
// its parent was not retained, and returns its index (-1 when dropped). A
// nil tracer records nothing.
func (t *tracer) span(name int, parent int32, start, end int64) int32 {
	if t == nil || t.kept[name] >= spanCap || (parent < 0 && name != spRepeat) {
		return -1
	}
	t.kept[name]++
	t.spans = append(t.spans, span{Name: spanNames[name], Start: start, End: end, Parent: parent, Run: t.run})
	return int32(len(t.spans) - 1)
}

// open starts a span that close ends; a repeat root also starts a new run id.
func (t *tracer) open(name int, parent int32) int32 {
	if t == nil {
		return -1
	}
	if name == spRepeat {
		t.run++
	}
	now := t.now()
	return t.span(name, parent, now, now)
}

func (t *tracer) close(id int32) {
	if t != nil && id >= 0 {
		t.spans[id].End = t.now()
	}
}

// beginRun starts a traced repeat's bookkeeping under its "run" span.
func (t *tracer) beginRun(runSpan int32) {
	t.cur = runSpan
	t.next = 0
}

// wrapPolicy wraps a fresh policy for the next server of the current run.
// Fleets construct their per-server policies in server index order.
func (t *tracer) wrapPolicy(p sim.Policy) sim.Policy {
	s := t.next
	t.next++
	for len(t.stats.ServerPlans) <= s {
		t.stats.ServerPlans = append(t.stats.ServerPlans, 0)
	}
	return &tracedPolicy{inner: p, t: t, server: s}
}

// tracedSource times a job source's pulls.
type tracedSource struct {
	inner job.Source
	t     *tracer
}

func (s *tracedSource) Next(until float64) []job.Job {
	t0 := s.t.now()
	jobs := s.inner.Next(until)
	t1 := s.t.now()
	s.t.stats.NextCalls++
	s.t.stats.SourceNs += t1 - t0
	s.t.span(spNext, s.t.cur, t0, t1)
	return jobs
}

func (s *tracedSource) Done() bool { return s.inner.Done() }

// tracedPolicy times one server's Plan calls and replays each.
type tracedPolicy struct {
	inner  sim.Policy
	t      *tracer
	server int
	rp     replayer
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Plan(now float64, s *sim.State) {
	t := p.t
	t0 := t.now()
	p.rp.capture(now, s)
	t1 := t.now()
	p.inner.Plan(now, s)
	t2 := t.now()
	plan := t.span(spPlan, t.cur, t1, t2)
	p.rp.replay(now, s, t, plan)
	t3 := t.now()

	st := &t.stats
	st.Invocations++
	st.PlanNs += t2 - t1
	st.ExtraNs += (t1 - t0) + (t3 - t2)
	st.PlanNsEach = append(st.PlanNsEach, float64(t2-t1))
	st.ServerPlans[p.server] += t2 - t1
}

// replayer recomputes one server's DES C-DVFS invocations from the inputs
// captured just before each Plan call.
type replayer struct {
	crr     *dist.CRR
	avail   []bool
	targets []int
	budget  float64
	queue   []job.Ready     // waiting jobs, in the order the engine presents them
	queued  []*sim.JobState // the same jobs, to read back where DES bound them
	ready   [][]job.Ready   // per core: live jobs, then the jobs bound this invocation
	tasks   [][]yds.Task    // per core: the Energy-OPT tasks
	scr     yds.Scratch
	segs    []yds.Segment
	reqs    []float64
	budgets []float64
	filler  dist.Filler
	planner qeopt.Planner
	plan    qeopt.Plan

	// The water-fill memo DES keeps: the last computed distribution is
	// reused while budget and requests stay bit-identical.
	wfValid  bool
	wfBudget float64
	wfReqs   []float64
}

// capture copies what the invocation's planning will read: the effective
// budget, core availability, each core's live jobs and the waiting queue.
func (r *replayer) capture(now float64, s *sim.State) {
	m := len(s.Cores)
	if r.crr == nil {
		r.crr = dist.NewCRR(m)
		r.ready = make([][]job.Ready, m)
		r.tasks = make([][]yds.Task, m)
	}
	r.budget = s.Budget()
	r.avail = s.AppendAvailableCores(r.avail)
	for i, c := range s.Cores {
		r.ready[i] = c.AppendReadyJobs(r.ready[i], now)
	}
	r.queue, r.queued = r.queue[:0], r.queued[:0]
	for _, js := range s.Queue() {
		r.queue = append(r.queue, job.Ready{Job: js.Job, Done: js.Done})
		r.queued = append(r.queued, js)
	}
}

// replay recomputes the invocation and counts every disagreement with what
// DES did as a mismatch.
func (r *replayer) replay(now float64, s *sim.State, t *tracer, parent int32) {
	st := &t.stats
	cfg := s.Cfg
	if !cfg.Ladder.Continuous() || cfg.MaxSpeed != 0 {
		st.Mismatches++ // the replay covers continuous, uncapped C-DVFS only
		return
	}
	// Step 1: C-RR over the available cores.
	r.targets = r.crr.AppendAssignAvail(r.targets, len(r.queue), r.avail)
	for i, c := range r.targets {
		if r.queued[i].Core != c {
			st.Mismatches++
		}
		r.ready[c] = append(r.ready[c], r.queue[i])
	}

	// Step 2: budget-free Energy-OPT requests.
	r.reqs = r.reqs[:0]
	total := 0.0
	for c := range s.Cores {
		tasks := r.tasks[c][:0]
		for _, j := range r.ready[c] {
			if j.Deadline <= now || j.Remaining() <= 0 {
				continue
			}
			tasks = append(tasks, yds.Task{ID: j.ID, Release: now, Deadline: j.Deadline, Volume: j.Remaining()})
		}
		r.tasks[c] = tasks
		t0 := t.now()
		speed, err := yds.SameReleaseRequest(now, tasks, &r.scr)
		t1 := t.now()
		t.span(spRequest, parent, t0, t1)
		st.RequestCalls++
		st.RequestTasks += len(tasks)
		st.RequestNs += t1 - t0
		if err != nil {
			st.Mismatches++
		}
		req := cfg.Power.DynamicPower(speed)
		r.reqs = append(r.reqs, req)
		total += req
	}

	if total <= r.budget {
		// The step-2 exit: every budget-free schedule is installed as is.
		for c, core := range s.Cores {
			t0 := t.now()
			segs, err := yds.SameReleaseInto(r.segs, now, r.tasks[c], &r.scr)
			t1 := t.now()
			t.span(spSchedule, parent, t0, t1)
			st.ScheduleCalls++
			st.ScheduleNs += t1 - t0
			r.segs = segs
			if err != nil || !sameSegments(segs, core.Plan()) || liveJobs(core) != len(r.ready[c]) {
				st.Mismatches++
			}
		}
		return
	}

	// Steps 3-4: water-fill the budget, then Online-QE per core.
	st.BudgetBound++
	if r.wfHit() {
		st.MemoHits++
	} else {
		t0 := t.now()
		r.budgets = r.filler.WaterFill(r.budgets, r.budget, r.reqs)
		t1 := t.now()
		t.span(spWaterfill, parent, t0, t1)
		st.WaterfillCalls++
		st.WaterfillNs += t1 - t0
		r.wfValid, r.wfBudget = true, r.budget
		r.wfReqs = append(r.wfReqs[:0], r.reqs...)
	}
	for c, core := range s.Cores {
		qc := qeopt.Config{Power: cfg.Power, Budget: r.budgets[c], Ladder: cfg.Ladder, MaxSpeed: cfg.MaxSpeed, TwoSpeed: cfg.TwoSpeedDiscrete}
		t0 := t.now()
		plan, err := r.planner.Online(r.plan, qc, now, r.ready[c])
		t1 := t.now()
		t.span(spOnline, parent, t0, t1)
		st.OnlineCalls++
		st.OnlineReady += len(r.ready[c])
		st.OnlineNs += t1 - t0
		r.plan = plan
		if err != nil || !sameSegments(plan.Segments, core.Plan()) || liveJobs(core) != len(r.ready[c])-len(plan.Discarded) {
			st.Mismatches++
		}
	}
}

// wfHit reports whether the memoized distribution applies: the same budget
// and request vector, bit for bit.
func (r *replayer) wfHit() bool {
	if !r.wfValid || len(r.wfReqs) != len(r.reqs) || math.Float64bits(r.wfBudget) != math.Float64bits(r.budget) {
		return false
	}
	for i, v := range r.reqs {
		if math.Float64bits(v) != math.Float64bits(r.wfReqs[i]) {
			return false
		}
	}
	return true
}

func sameSegments(a, b []yds.Segment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || math.Float64bits(x.Start) != math.Float64bits(y.Start) ||
			math.Float64bits(x.End) != math.Float64bits(y.End) || math.Float64bits(x.Speed) != math.Float64bits(y.Speed) {
			return false
		}
	}
	return true
}

func liveJobs(c *sim.CoreState) int {
	n := 0
	for _, js := range c.Jobs {
		if !js.Departed() {
			n++
		}
	}
	return n
}

// traceFile is the JSON the traced pass writes.
type traceFile struct {
	Schema   string             `json:"schema"`
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	SpanCap  int                `json:"span_cap"`
	Layers   map[string]float64 `json:"layers"`
	Spans    []span             `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
