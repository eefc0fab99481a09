package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"dessched/internal/admission"
	"dessched/internal/eventq"
	"dessched/internal/job"
	"dessched/internal/power"
	"dessched/internal/yds"
)

// Result summarizes one simulation run.
type Result struct {
	Policy string

	Quality     float64 // sum of per-job quality at departure
	MaxQuality  float64 // sum of q(demand) over all jobs — the normalizer
	NormQuality float64 // Quality / MaxQuality
	Energy      float64 // dynamic energy, J (execution + idle burn)
	IdleEnergy  float64 // portion of Energy charged to idle cores (No-DVFS)

	PeakPower        float64 // maximum observed instantaneous dynamic power
	BudgetViolations int     // processed events after which power exceeded the budget (audit)

	Arrived    int
	Completed  int
	Deadlined  int
	Discarded  int
	Shed       int // turned away by the admission stage
	Requeued   int // evacuated from outaged cores back to the queue
	Retried    int // backoff-delayed queue re-entries (RetryPolicy)
	Abandoned  int // evacuated jobs the retry policy gave up on
	Invocation int // policy invocations
	Events     int // simulator events processed (pops; a replaced plan's segment ends never pop)

	// RetryQuality is the quality credited to jobs that departed after at
	// least one evacuation→retry cycle — the quality the retry lifecycle
	// recovered rather than lost to the outage.
	RetryQuality float64

	Span        float64 // first release to last departure, seconds
	SkippedTime float64 // planned time skipped because its job had departed (audit)

	// Jobs holds one outcome per job when Config.CollectJobs is set, in
	// arrival order. Use metrics.SummarizeJobs for percentiles.
	Jobs []JobOutcome

	// Classes breaks the run down per SLO job class, sorted by class name.
	// Populated only when at least one job carries a class (legacy
	// unclassed streams leave it nil); a mixed stream includes the ""
	// bucket for its unclassed jobs.
	Classes []ClassResult `json:"classes,omitempty"`
}

// ClassResult aggregates one job class's slice of a run. Quality figures
// use the class's quality function (Config.ClassQuality) when one is set.
type ClassResult struct {
	Class       string  `json:"class"`
	Quality     float64 `json:"quality"`
	MaxQuality  float64 `json:"max_quality"`
	NormQuality float64 `json:"norm_quality"`
	Arrived     int     `json:"arrived"`
	Completed   int     `json:"completed"`
	Deadlined   int     `json:"deadlined"`
	Discarded   int     `json:"discarded"`
	Shed        int     `json:"shed"`
	Abandoned   int     `json:"abandoned"`
}

// ClassNamed returns the class's entry and whether one exists.
func (r *Result) ClassNamed(name string) (ClassResult, bool) {
	for _, c := range r.Classes {
		if c.Class == name {
			return c, true
		}
	}
	return ClassResult{}, false
}

// JobOutcome is one job's fate, recorded when Config.CollectJobs is set.
type JobOutcome struct {
	ID       job.ID
	Release  float64
	Deadline float64
	Demand   float64
	Done     float64
	Quality  float64
	DepartAt float64
	Reason   DepartReason
	Core     int    // -1 when never assigned
	Class    string // SLO job class, "" for unclassed streams
}

// Latency returns the job's response time (departure minus release).
func (o JobOutcome) Latency() float64 { return o.DepartAt - o.Release }

// Satisfied reports whether the job was processed to its full demand.
func (o JobOutcome) Satisfied() bool { return o.Reason == Completed }

// evKind discriminates the engine's event payloads.
type evKind uint8

const (
	evkArrival evKind = iota
	evkDeadline
	evkSegment
	evkQuantum
	evkFaultEdge
	evkRetry // a retry backoff expired; the job re-enters the queue
)

// simEvent is the compact value payload of the event queue. One flat struct
// serves every kind so queue items never box through an interface — pushing
// an event is pointer-free and allocation-free once the heap has grown.
type simEvent struct {
	kind evKind
	js   *JobState  // evkArrival, evkDeadline, evkRetry
	core *CoreState // evkSegment
}

// completion records a job finishing inside a settled slice; departures are
// deferred until the core's accounting is closed.
type completion struct {
	js *JobState
	at float64
}

// pendingArrival is a job that has been handed to the engine but has not
// arrived yet. It holds two reserved sequence numbers: seq for its arrival
// and seq+1 for its deadline, the numbers pushing both events at hand-over
// would have taken.
type pendingArrival struct {
	js  *JobState
	seq uint64
}

type engine struct {
	cfg    Config
	policy Policy
	cores  []*CoreState
	queue  []*JobState
	all    []*JobState
	state  *State

	// The event set is split in three so the heap holds only events in
	// flight. Jobs not yet arrived wait in arrivals, ordered by (release,
	// seq) from index nextArrival on; a job's deadline event enters the
	// heap when the job arrives. Each core's next segment end is its slot
	// in timers (see armPlan). events holds everything else. nextEvent
	// merges the three in the heap's own (time, seq) order, so every live
	// event pops exactly as if it had been pushed up front.
	events      eventq.Queue[simEvent]
	timers      eventq.Timers
	arrivals    []pendingArrival
	nextArrival int

	undeparted    int
	lastDeparture float64

	// moreArrivals marks a session that expects further Feed calls: the
	// periodic quantum stays alive and the run does not stop when the
	// system momentarily drains. False once arrivals holds every future
	// arrival (ExpectMore(false); Start sets it so at once).
	moreArrivals bool

	// fold accumulates per-job result statistics as the session retires
	// departed jobs from e.all (Stream.compact); result() folds the rest.
	fold resultFold

	invocations      int
	peakPower        float64
	budgetViolations int
	skippedTime      float64
	shed             int
	requeued         int
	retried          int
	retryQuality     float64
	quantumLive      bool
	eventsProcessed  int
	firstRelease     float64

	// Hot-path caches. powCache memoizes the last speed→power conversion
	// per core (plans hold a speed constant across many events), idlePower
	// is the constant DynamicPower(IdleBurnSpeed), and completions is the
	// settle scratch. All three return bit-identical values to direct
	// recomputation — see docs/PERFORMANCE.md.
	powCache    []power.SpeedCache
	idlePower   float64
	completions []completion

	// Power-audit memo (see audit). coreDraw[i] is core i's instantaneous
	// draw, constant until coreDrawUntil[i]; drawTotal is their sum in core
	// order, valid until drawUntil (the earliest per-core bound). A plan
	// install or evacuation resets the core's bound and drawUntil to -Inf.
	// budgetLimit is the audit threshold derived from BudgetAt, constant
	// until budgetLimitUntil (the next budget-window edge).
	coreDraw         []float64
	coreDrawUntil    []float64
	drawTotal        float64
	drawUntil        float64
	budgetLimit      float64
	budgetLimitUntil float64
}

// Run simulates the policy over the job stream and returns the aggregate
// result: a session opened on the whole slice (Start) and finished. Jobs
// must be valid with deadlines agreeable within each class
// (job.ValidateAllByClass); unclassed streams must be globally agreeable.
func Run(cfg Config, jobs []job.Job, p Policy) (Result, error) {
	st, err := Start(cfg, jobs, p)
	if err != nil {
		return Result{}, err
	}
	return st.Finish()
}

// newEngine builds an engine shell — cores, policy state view, power
// caches — without any job or event state. NewStream and RestoreStream
// populate it.
func newEngine(cfg Config, p Policy) *engine {
	e := &engine{cfg: cfg, policy: p}
	e.cores = make([]*CoreState, cfg.Cores)
	for i := range e.cores {
		e.cores[i] = &CoreState{Index: i}
	}
	e.state = &State{Cfg: &e.cfg, Cores: e.cores, engine: e}
	e.timers.Init(cfg.Cores)
	e.powCache = make([]power.SpeedCache, cfg.Cores)
	e.idlePower = cfg.Power.DynamicPower(cfg.IdleBurnSpeed)
	e.coreDraw = make([]float64, cfg.Cores)
	e.coreDrawUntil = make([]float64, cfg.Cores)
	for i := range e.cores {
		e.redraw(i)
	}
	e.budgetChanged()
	return e
}

// addArrivals hands jobs to the engine as pending arrivals. Each job
// reserves the two sequence numbers its arrival and deadline events would
// have taken had both been pushed now, so keeping them out of the heap
// until the job arrives changes no tie-break. The pending list stays
// ordered by (release, seq); Start may pass jobs in any order.
func (e *engine) addArrivals(jobs []job.Job) {
	if e.nextArrival > 0 {
		// Drop the consumed prefix so a long-lived stream's list stays
		// as short as its not-yet-arrived tail.
		n := copy(e.arrivals, e.arrivals[e.nextArrival:])
		clear(e.arrivals[n:])
		e.arrivals = e.arrivals[:n]
		e.nextArrival = 0
	}
	seq := e.events.Reserve(2 * len(jobs))
	sorted := true
	for i := range jobs {
		js := &JobState{Job: jobs[i], Core: -1}
		e.all = append(e.all, js)
		if n := len(e.arrivals); n > 0 && js.Job.Release < e.arrivals[n-1].js.Job.Release {
			sorted = false
		}
		e.arrivals = append(e.arrivals, pendingArrival{js: js, seq: seq + 2*uint64(i)})
	}
	if !sorted {
		slices.SortFunc(e.arrivals, arrivalOrder)
	}
	e.undeparted += len(jobs)
}

// arrivalOrder orders pending arrivals as the heap would pop them: by
// release, then by sequence number.
func arrivalOrder(a, b pendingArrival) int {
	if c := cmp.Compare(a.js.Job.Release, b.js.Job.Release); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// pendingArrivals counts the jobs handed to the engine that have not
// arrived yet.
func (e *engine) pendingArrivals() int { return len(e.arrivals) - e.nextArrival }

// nextEvent removes and returns the earliest pending event strictly before
// until: the head of the arrival list, the earliest segment timer or the
// heap's top, whichever comes first in (time, seq) order. ok is false when
// no event is due before until.
func (e *engine) nextEvent(until float64) (it eventq.Item[simEvent], ok bool) {
	top, queued := e.events.Peek()
	slot, at, seq, timed := e.timers.Min()
	timed = timed && (!queued || !top.Before(at, seq))
	if timed {
		top, queued = eventq.MakeItem(at, seq, simEvent{kind: evkSegment, core: e.cores[slot]}), true
	}
	if e.nextArrival < len(e.arrivals) {
		a := e.arrivals[e.nextArrival]
		if t := a.js.Job.Release; !queued || !top.Before(t, a.seq) {
			if t >= until {
				return it, false
			}
			e.arrivals[e.nextArrival] = pendingArrival{} // release for GC
			e.nextArrival++
			return eventq.MakeItem(t, a.seq, simEvent{kind: evkArrival, js: a.js}), true
		}
	}
	if !queued || top.Time >= until {
		return it, false
	}
	if timed {
		// Move the core's timer to its next segment end now, before the
		// event is processed: a plan installed while processing it
		// re-keys the timer again.
		c := e.cores[slot]
		c.segNext++
		e.armSegment(c)
	} else {
		e.events.Pop()
	}
	return top, true
}

// contextPollMask throttles cancelation checks to one atomic load per
// 256 events, keeping the hot loop unchanged when no one cancels. Every
// event that pops does work (a replaced plan's segment ends never pop), so
// the period is counted in that work: 256 such events take about as long
// as the 1,024 the engine popped when most of them were stale.
const contextPollMask = 255

// processEvent handles one popped event — the body of Stream.Advance's
// loop. It returns stop = true once every job has departed and no further
// arrivals are possible; the caller must not process more events after
// that (trailing events stay unpopped and uncounted).
func (e *engine) processEvent(it eventq.Item[simEvent]) (stop bool, err error) {
	now := it.Time
	e.eventsProcessed++
	if e.cfg.Context != nil && e.eventsProcessed&contextPollMask == 0 {
		if err := e.cfg.Context.Err(); err != nil {
			return false, err
		}
	}
	switch ev := it.Payload; ev.kind {
	case evkArrival:
		e.events.PushSeq(ev.js.Job.Deadline, it.Seq()+1, simEvent{kind: evkDeadline, js: ev.js})
		e.onArrival(now, ev.js)
	case evkDeadline:
		if !ev.js.Departed() {
			e.depart(ev.js, now, DeadlineHit)
			// Freed capacity: under idle-core triggering a departure
			// that idles the core behaves like a plan running dry.
			if e.cfg.Triggers.IdleCore && ev.js.Core >= 0 && e.cores[ev.js.Core].Idle(now) && e.liveWork() {
				e.invoke(now)
			}
		}
	case evkSegment:
		e.settleCore(ev.core, now)
		if e.cfg.Triggers.IdleCore && ev.core.Idle(now) && e.liveWork() {
			e.invoke(now)
		}
	case evkQuantum:
		e.quantumLive = false
		e.invoke(now)
		if e.undeparted > 0 || e.pendingArrivals() > 0 || e.moreArrivals {
			e.events.Push(now+e.cfg.Triggers.Quantum, simEvent{kind: evkQuantum})
			e.quantumLive = true
		}
	case evkRetry:
		e.onRetry(now, ev.js)
	case evkFaultEdge:
		// Settle everything on the old fault regime, evacuate cores
		// that just went dark, then let the policy redistribute work
		// and power.
		e.emit(Event{Time: now, Kind: EvFaultEdge, Job: -1, Core: -1})
		e.evacuateOutages(now)
		e.invoke(now)
	}
	e.audit(now)
	return e.undeparted == 0 && e.pendingArrivals() == 0 && !e.moreArrivals, nil
}

func (e *engine) onArrival(now float64, js *JobState) {
	e.queue = append(e.queue, js)
	e.state.queue = e.queue
	e.emit(Event{Time: now, Kind: EvArrival, Job: js.Job.ID, Core: -1, Class: js.Job.Class})
	e.admit(now)

	t := e.cfg.Triggers
	switch {
	case t.OnArrival:
		e.invoke(now)
	case t.Counter > 0 && len(e.queue) >= t.Counter:
		e.invoke(now)
	case t.IdleCore && e.anyCoreIdle(now):
		e.invoke(now)
	}
}

// admit runs the load-shedding stage: while the waiting queue exceeds its
// limit, turn a job away per the admission policy. Tail-drop rejects the
// newest arrival; quality-aware rejects the queued job with the lowest
// marginal quality per unit demand (the large jobs whose cycles buy the
// least quality under a concave quality function); priority rejects from
// the lowest SLO tier first (quality-aware within a tier), so a higher
// tier is never shed while a lower tier is queued. Ties break toward the
// oldest job so runs are deterministic.
func (e *engine) admit(now float64) {
	ac := e.cfg.Admission
	if !ac.Enabled() {
		return
	}
	for len(e.queue) > ac.MaxQueue {
		victim := e.queue[len(e.queue)-1] // tail-drop
		switch ac.Policy {
		case admission.QualityAware:
			worst := math.Inf(1)
			for _, js := range e.queue {
				v := e.cfg.QualityFor(js.Job.Class).Eval(js.Job.Demand) / js.Job.Demand
				if v < worst {
					worst = v
					victim = js
				}
			}
		case admission.Priority:
			// Lexicographic minimum over (tier ascending, marginal quality
			// ascending): the cheapest job of the least important tier.
			tier := math.MaxInt
			worst := math.Inf(1)
			for _, js := range e.queue {
				p := e.cfg.PriorityFor(js.Job.Class)
				if p > tier {
					continue
				}
				v := e.cfg.QualityFor(js.Job.Class).Eval(js.Job.Demand) / js.Job.Demand
				if p < tier || v < worst {
					tier, worst, victim = p, v, js
				}
			}
		}
		e.shed++
		e.depart(victim, now, Shed)
	}
}

// evacuateOutages moves every undeparted job off cores whose fault factor
// just hit zero: the jobs return to the waiting queue (the policy's C-RR
// redistributes them at the invocation that follows) and the dead core's
// plan is cleared so it neither executes nor draws power while dark.
func (e *engine) evacuateOutages(now float64) {
	for _, c := range e.cores {
		if e.speedFactor(c.Index, now) > 0 {
			continue
		}
		e.settleCore(c, now)
		if len(c.Jobs) == 0 && len(c.plan) == 0 {
			continue
		}
		for _, js := range c.Jobs {
			if js.Departed() {
				continue
			}
			js.Core = -1
			js.Phase = PhaseEvacuated
			e.requeued++
			e.emit(Event{Time: now, Kind: EvRequeue, Job: js.Job.ID, Core: c.Index, Class: js.Job.Class})
			if e.cfg.Retry.Enabled() {
				// Retry lifecycle: the job waits out a backoff (or is
				// abandoned) instead of re-entering the queue instantly.
				e.scheduleRetry(now, js)
			} else {
				js.Phase = PhasePending
				e.queue = append(e.queue, js)
			}
		}
		c.Jobs = c.Jobs[:0]
		c.plan = nil
		c.planCursor = 0
		c.planVersion++
		e.timers.Stop(c.Index)
		e.redraw(c.Index)
		e.state.queue = e.queue
	}
}

func (e *engine) anyCoreIdle(now float64) bool {
	for _, c := range e.cores {
		e.settleCore(c, now)
		if c.Idle(now) {
			return true
		}
	}
	return false
}

// liveWork reports whether anything remains to schedule: waiting jobs or
// assigned jobs with remaining demand.
func (e *engine) liveWork() bool {
	if len(e.queue) > 0 {
		return true
	}
	for _, c := range e.cores {
		for _, js := range c.Jobs {
			if !js.Departed() && js.Remaining() > 0 {
				return true
			}
		}
	}
	return false
}

func (e *engine) invoke(now float64) {
	for _, c := range e.cores {
		e.settleCore(c, now)
	}
	e.invocations++
	e.emit(Event{Time: now, Kind: EvInvoke, Job: -1, Core: -1})
	e.state.Now = now
	if e.cfg.QueueOrder != OrderFCFS {
		e.orderQueue()
	}
	e.state.queue = e.queue
	e.policy.Plan(now, e.state)
	e.queue = e.state.queue
}

// armPlan re-keys the core's segment timer for its freshly installed plan
// and drops the core's memoized draw. The plan reserves one sequence
// number per segment, the numbers pushing every segment's end would take,
// and the timer is armed at the first segment's end under the first of
// them (stopped for an empty plan), replacing the old plan's pending
// segment end: a replaced plan's segments never pop.
func (e *engine) armPlan(c *CoreState) {
	c.segSeq = e.events.Reserve(len(c.plan))
	c.segNext = 0
	e.armSegment(c)
	e.redraw(c.Index)
}

// armSegment arms the core's timer at the end of plan segment segNext,
// under that segment's reserved number, or stops it once the plan has none
// left.
func (e *engine) armSegment(c *CoreState) {
	if c.segNext < len(c.plan) {
		e.timers.Set(c.Index, c.plan[c.segNext].End, c.segSeq+uint64(c.segNext))
	} else {
		e.timers.Stop(c.Index)
	}
}

// settleCore integrates the core's plan up to time T: job progress, energy,
// busy time, and completion departures. It is idempotent for T at or before
// the last settled instant.
func (e *engine) settleCore(c *CoreState, T float64) {
	if T <= c.settledTo {
		return
	}
	// Take ownership of the scratch so a reentrant settle (depart below
	// settles the departing job's core, which early-returns for this core
	// but not in hypothetical future call graphs) can never clobber it.
	completions := e.completions[:0]
	e.completions = nil
	for c.planCursor < len(c.plan) {
		seg := c.plan[c.planCursor]
		if seg.Start >= T {
			break
		}
		from := math.Max(seg.Start, c.settledTo)
		to := math.Min(seg.End, T)
		if to > from {
			js := e.findOnCore(c, seg.ID)
			if js != nil && !js.Departed() {
				dt := to - from
				c.energy += e.powCache[c.Index].DynamicPower(e.cfg.Power, seg.Speed) * dt
				c.busyTime += dt
				if e.cfg.Recorder != nil {
					e.cfg.Recorder.RecordExec(c.Index, yds.Segment{ID: seg.ID, Start: from, End: to, Speed: seg.Speed})
				}
				// Fault regimes never change inside a settled slice
				// (fault-edge events force a settle at each boundary),
				// so the midpoint factor is the slice's factor.
				factor := 1.0
				if len(e.cfg.Faults) > 0 {
					factor = e.speedFactor(c.Index, (from+to)/2)
				}
				js.Done += dt * power.Rate(seg.Speed) * factor
				if js.Done >= js.Job.Demand-1e-9 {
					js.Done = js.Job.Demand
					completions = append(completions, completion{js, to})
				}
			} else {
				e.skippedTime += to - from
			}
		}
		if seg.End <= T {
			c.planCursor++
		} else {
			break
		}
	}
	c.settledTo = T
	for _, cp := range completions {
		e.depart(cp.js, cp.at, Completed)
	}
	e.completions = completions
}

func (e *engine) findOnCore(c *CoreState, id job.ID) *JobState {
	for _, js := range c.Jobs {
		if js.Job.ID == id {
			return js
		}
	}
	return nil
}

// depart removes a job from the system, crediting its quality: full quality
// when complete, partial-volume quality for partial-evaluation jobs, zero
// otherwise.
func (e *engine) depart(js *JobState, t float64, reason DepartReason) {
	if js.Departed() {
		return
	}
	if js.Core >= 0 {
		e.settleCore(e.cores[js.Core], t)
		if js.Departed() {
			return // the settle completed it
		}
	}
	done := math.Min(js.Done, js.Job.Demand)
	q := e.cfg.QualityFor(js.Job.Class)
	switch {
	case done >= js.Job.Demand-1e-9:
		reason = Completed
		js.Quality = q.Eval(js.Job.Demand)
	case js.Job.Partial:
		js.Quality = q.Eval(done)
	default:
		js.Quality = 0
	}
	js.Reason = reason
	js.DepartAt = t
	js.Phase = PhaseDeparted
	if js.Attempts > 0 {
		e.retryQuality += js.Quality
	}
	kind := EvDeadline
	switch reason {
	case Completed:
		kind = EvComplete
	case PolicyDiscard:
		kind = EvDiscard
	case Shed:
		kind = EvShed
	case Abandoned:
		kind = EvAbandon
	}
	e.emit(Event{Time: t, Kind: kind, Job: js.Job.ID, Core: js.Core, Quality: js.Quality, Class: js.Job.Class})
	e.undeparted--
	if t > e.lastDeparture {
		e.lastDeparture = t
	}
	if js.Core >= 0 {
		c := e.cores[js.Core]
		for i, other := range c.Jobs {
			if other == js {
				c.Jobs = append(c.Jobs[:i], c.Jobs[i+1:]...)
				break
			}
		}
	} else {
		for i, other := range e.queue {
			if other == js {
				e.queue = append(e.queue[:i], e.queue[i+1:]...)
				e.state.queue = e.queue
				break
			}
		}
	}
}

// audit samples instantaneous power just after an event and tracks the peak
// and budget violations against the effective (budget-faulted) budget.
// Idle burn (No-DVFS) counts toward the draw.
//
// Both sides of the comparison are memoized. A core's draw is a step
// function of time that can only step at its plan's segment edges, so it
// is recomputed only once now reaches the next edge or the plan changes;
// the total is re-summed, in core order from the per-core values, only
// when some core's draw may have moved. Events that fall between edges —
// deadlines of departed jobs, quantum ticks between installs — audit in
// O(1). The values are those the direct computation yields, bit for bit.
func (e *engine) audit(now float64) {
	if now >= e.drawUntil {
		total, until := 0.0, math.Inf(1)
		for i, c := range e.cores {
			if now >= e.coreDrawUntil[i] {
				e.coreDraw[i] = e.drawAt(c, now)
				e.coreDrawUntil[i] = c.nextSpeedChange(now)
			}
			total += e.coreDraw[i]
			if e.coreDrawUntil[i] < until {
				until = e.coreDrawUntil[i]
			}
		}
		e.drawTotal, e.drawUntil = total, until
	}
	if now >= e.budgetLimitUntil {
		e.budgetLimit = e.cfg.BudgetAt(now)*(1+1e-6) + 1e-9
		e.budgetLimitUntil = e.cfg.nextBudgetChange(now)
	}
	total := e.drawTotal
	if total > e.peakPower {
		e.peakPower = total
	}
	if total > e.budgetLimit {
		e.budgetViolations++
	}
}

// drawAt is the core's instantaneous dynamic power at t.
func (e *engine) drawAt(c *CoreState, t float64) float64 {
	s := c.SpeedAt(t)
	if s == 0 {
		// Idle burn is a run-wide constant, precomputed by the same
		// DynamicPower call this branch used to make.
		return e.idlePower
	}
	return e.powCache[c.Index].DynamicPower(e.cfg.Power, s)
}

// redraw forgets core i's memoized draw after its plan changed.
func (e *engine) redraw(i int) {
	e.coreDrawUntil[i] = math.Inf(-1)
	e.drawUntil = math.Inf(-1)
}

// budgetChanged forgets the memoized audit threshold after the budget
// windows changed.
func (e *engine) budgetChanged() { e.budgetLimitUntil = math.Inf(-1) }

// resultFold accumulates the per-job slice of a Result incrementally, in
// arrival-push order. A session folds departed jobs out of memory as it
// advances (Stream.compact) and the rest when it finishes; the additions
// run in the same order wherever that cut falls, so results do not depend
// on how often the session advanced.
type resultFold struct {
	arrived    int
	quality    float64
	maxQuality float64
	completed  int
	deadlined  int
	discarded  int
	abandoned  int
	classed    bool
	byClass    map[string]*ClassResult
	jobs       []JobOutcome
}

// foldJob retires one job into the fold.
func (e *engine) foldJob(js *JobState) {
	f := &e.fold
	f.arrived++
	maxQ := e.cfg.QualityFor(js.Job.Class).Eval(js.Job.Demand)
	f.quality += js.Quality
	f.maxQuality += maxQ
	switch js.Reason {
	case Completed:
		f.completed++
	case DeadlineHit:
		f.deadlined++
	case PolicyDiscard:
		f.discarded++
	case Abandoned:
		f.abandoned++
	}
	if js.Job.Class != "" {
		f.classed = true
	}
	if f.byClass == nil {
		f.byClass = make(map[string]*ClassResult)
	}
	cr := f.byClass[js.Job.Class]
	if cr == nil {
		cr = &ClassResult{Class: js.Job.Class}
		f.byClass[js.Job.Class] = cr
	}
	cr.Arrived++
	cr.Quality += js.Quality
	cr.MaxQuality += maxQ
	switch js.Reason {
	case Completed:
		cr.Completed++
	case DeadlineHit:
		cr.Deadlined++
	case PolicyDiscard:
		cr.Discarded++
	case Shed:
		cr.Shed++
	case Abandoned:
		cr.Abandoned++
	}
	if e.cfg.CollectJobs {
		f.jobs = append(f.jobs, JobOutcome{
			ID:       js.Job.ID,
			Release:  js.Job.Release,
			Deadline: js.Job.Deadline,
			Demand:   js.Job.Demand,
			Done:     js.Done,
			Quality:  js.Quality,
			DepartAt: js.DepartAt,
			Reason:   js.Reason,
			Core:     js.Core,
			Class:    js.Job.Class,
		})
	}
}

func (e *engine) result(firstRelease, last float64) Result {
	// Fold the jobs still held in memory.
	for _, js := range e.all {
		e.foldJob(js)
	}
	f := &e.fold
	r := Result{
		Policy:           e.policy.Name(),
		Arrived:          f.arrived,
		Invocation:       e.invocations,
		Events:           e.eventsProcessed,
		PeakPower:        e.peakPower,
		BudgetViolations: e.budgetViolations,
		SkippedTime:      e.skippedTime,
		Shed:             e.shed,
		Requeued:         e.requeued,
		Retried:          e.retried,
		RetryQuality:     e.retryQuality,
		Quality:          f.quality,
		MaxQuality:       f.maxQuality,
		Completed:        f.completed,
		Deadlined:        f.deadlined,
		Discarded:        f.discarded,
		Abandoned:        f.abandoned,
		Jobs:             f.jobs,
	}
	if r.MaxQuality > 0 {
		r.NormQuality = r.Quality / r.MaxQuality
	}
	// Per-class breakdown only for classed streams: legacy unclassed runs
	// keep a nil Classes slice so their results are byte-for-byte what
	// they were before classes existed.
	if f.classed {
		names := make([]string, 0, len(f.byClass))
		for name := range f.byClass {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			cr := f.byClass[name]
			if cr.MaxQuality > 0 {
				cr.NormQuality = cr.Quality / cr.MaxQuality
			}
			r.Classes = append(r.Classes, *cr)
		}
	}
	span := last - firstRelease
	if span < 0 || f.arrived == 0 {
		span = 0
	}
	r.Span = span
	busy := 0.0
	for _, c := range e.cores {
		r.Energy += c.energy
		busy += c.busyTime
	}
	if e.cfg.IdleBurnSpeed > 0 {
		idle := span*float64(len(e.cores)) - busy
		if idle > 0 {
			r.IdleEnergy = e.cfg.Power.DynamicPower(e.cfg.IdleBurnSpeed) * idle
			r.Energy += r.IdleEnergy
		}
	}
	return r
}

// String renders a one-line summary for logs and CLI output.
func (r Result) String() string {
	s := fmt.Sprintf("%s: quality %.4f (norm %.4f), energy %.0f J, peak %.1f W, jobs %d (done %d, deadline %d, discard %d), invocations %d",
		r.Policy, r.Quality, r.NormQuality, r.Energy, r.PeakPower, r.Arrived, r.Completed, r.Deadlined, r.Discarded, r.Invocation)
	if r.Shed > 0 {
		s += fmt.Sprintf(", shed %d", r.Shed)
	}
	if r.Requeued > 0 {
		s += fmt.Sprintf(", requeued %d", r.Requeued)
	}
	if r.Retried > 0 || r.Abandoned > 0 {
		s += fmt.Sprintf(", retried %d, abandoned %d", r.Retried, r.Abandoned)
	}
	return s
}
