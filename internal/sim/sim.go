// Package sim is the discrete-event simulator the paper's evaluation runs
// on (§V-A): a multicore server with per-core DVFS (continuous or discrete),
// a global dynamic power budget, best-effort jobs with deadlines and partial
// evaluation, and pluggable scheduling policies invoked through the
// triggering events of §IV-E (quantum, idle-core, counter, and optional
// immediate scheduling).
//
// The simulator owns time, job lifecycle (arrival → assignment → execution →
// departure at completion, deadline, or discard), energy integration, and a
// power audit; policies own job-to-core assignment and per-core execution
// plans. Policies live in internal/core (DES) and internal/baseline
// (FCFS/LJF/SJF) and implement the Policy interface; sim never imports them.
package sim

import (
	"context"
	"math"

	"dessched/internal/admission"
	"dessched/internal/cfgerr"
	"dessched/internal/job"
	"dessched/internal/power"
	"dessched/internal/quality"
	"dessched/internal/yds"
)

// Policy is a multicore scheduling algorithm driven by the simulator. Plan
// is called at every triggering event; it may drain the waiting queue onto
// cores and replace core plans through the State API.
type Policy interface {
	Name() string
	Plan(now float64, s *State)
}

// Triggers selects which events invoke the policy (§IV-E).
type Triggers struct {
	Quantum   float64 // > 0: periodic invocation every Quantum seconds
	Counter   int     // > 0: invoke once this many jobs wait in the queue
	IdleCore  bool    // invoke when a core exhausts its plan, or a job arrives while a core is idle
	OnArrival bool    // immediate scheduling: invoke on every arrival
}

// PaperTriggers returns the paper's §V-B trigger setup: 500 ms quantum,
// counter of 8, idle-core on.
func PaperTriggers() Triggers {
	return Triggers{Quantum: 0.5, Counter: 8, IdleCore: true}
}

// Config describes the simulated server.
type Config struct {
	Cores   int              // number of cores m
	Budget  float64          // total dynamic power budget H, watts
	Power   power.Model      // per-core power model
	Ladder  power.Ladder     // discrete speed ladder; empty = continuous DVFS
	Quality quality.Function // quality function applied to processed volume

	// ClassQuality optionally overrides Quality per job class (see
	// internal/workloadspec): quality accounting — departure crediting,
	// max-quality normalization, quality-aware shedding, hedge resolution —
	// uses the class's function for jobs whose Class has an entry, and
	// Quality otherwise. Planning policies always see the base Quality;
	// class-aware planning is a separate policy concern.
	ClassQuality map[string]quality.Function

	// QueueOrder is the ready-queue discipline: the order in which the
	// engine presents waiting jobs to the policy at every invocation. The
	// zero value (OrderFCFS) keeps arrival order and is bit-identical to
	// runs predating the knob. See QueueOrder.
	QueueOrder QueueOrder

	// ClassPriority maps job classes to integer SLO priorities (higher =
	// more important; unlisted classes and the empty legacy class are tier
	// 0). The priority-aware disciplines (OrderPrioSJF, OrderPrioEDF), the
	// priority admission policy, and class-aware planning policies all read
	// tiers through PriorityFor.
	ClassPriority map[string]int

	Triggers Triggers

	// IdleBurnSpeed is the speed whose dynamic power an idle core is
	// charged for. It is 0 for DVFS-capable systems (activity-gated idle)
	// and the fixed base speed for the No-DVFS architecture, which cannot
	// scale down and therefore burns the whole budget continuously
	// (DESIGN.md, assumption 2).
	IdleBurnSpeed float64

	// MaxSpeed optionally caps every core's speed in GHz (0 = uncapped,
	// beyond the budget-implied limit).
	MaxSpeed float64

	// Recorder, when non-nil, receives every executed slice of work as it
	// is settled — used to capture schedule traces for replay (§V-G
	// validation) and inspection. See package trace.
	Recorder Recorder

	// TwoSpeedDiscrete selects the optimal two-speed discretization
	// (paper ref. [21]) instead of §V-F's snap-up rule when Ladder is
	// discrete; see qeopt.Config.TwoSpeed.
	TwoSpeedDiscrete bool

	// Faults optionally degrades cores during time windows (throttling or
	// outage); the policy is re-invoked at every fault boundary. See Fault.
	Faults []Fault

	// BudgetFaults optionally drops the global power budget to a fraction
	// during time windows; policies observe the effective budget through
	// State.Budget and the power audit tracks it. See BudgetFault.
	BudgetFaults []BudgetFault

	// Admission is the load-shedding stage run on every arrival, before
	// the scheduler sees the queue. The zero value admits everything.
	Admission admission.Config

	// Retry governs jobs evacuated from outaged cores: backoff-delayed
	// re-entry with bounded attempts and a deadline-aware cutoff. The zero
	// value keeps the legacy instant-requeue behavior. See RetryPolicy.
	Retry RetryPolicy

	// CollectJobs records a per-job outcome in Result.Jobs (off by default
	// to keep long runs lean).
	CollectJobs bool

	// Observer, when non-nil, receives every notable simulation event
	// (arrivals, invocations, departures, fault edges) synchronously.
	Observer Observer

	// Context, when non-nil, cancels the run: the engine polls it once
	// every contextPollMask+1 processed events and returns ctx.Err() when
	// it fires. A nil or never-canceled context changes nothing — the run
	// is bit-identical to one without a context.
	Context context.Context
}

// Recorder receives executed work slices. Implementations must not retain
// the segment beyond the call.
type Recorder interface {
	RecordExec(core int, seg yds.Segment)
}

// PaperConfig returns the paper's default simulation setup (§V-B): 16
// cores, 320 W budget, P = 5·s², exponential quality with c = 0.003,
// continuous DVFS, and the paper's triggers.
func PaperConfig() Config {
	return Config{
		Cores:    16,
		Budget:   320,
		Power:    power.Default,
		Quality:  quality.Default(),
		Triggers: PaperTriggers(),
	}
}

// Validate reports configuration errors. All failures are typed
// *cfgerr.Error values, so facade callers can detect invalid input with
// errors.As instead of string matching. NaN and infinite parameters are
// rejected here — NaN compares false against every threshold, so without
// the explicit checks it would slip through and corrupt every downstream
// water level.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return cfgerr.New("sim", "cores", "sim: need at least one core, got %d", c.Cores)
	}
	if c.Budget <= 0 || math.IsNaN(c.Budget) || math.IsInf(c.Budget, 0) {
		return cfgerr.New("sim", "budget", "sim: power budget must be positive and finite, got %g", c.Budget)
	}
	if err := c.Power.Validate(); err != nil {
		return cfgerr.New("sim", "power", "%v", err)
	}
	if c.Quality == nil {
		return cfgerr.New("sim", "quality", "sim: quality function is required")
	}
	for class, fn := range c.ClassQuality {
		if class == "" {
			return cfgerr.New("sim", "class_quality", "sim: class quality override for the empty class; set Quality instead")
		}
		if fn == nil {
			return cfgerr.New("sim", "class_quality", "sim: class %q: quality function is nil", class)
		}
	}
	if c.QueueOrder < OrderFCFS || c.QueueOrder > OrderPrioEDF {
		return cfgerr.New("sim", "queue_order", "sim: unknown queue order %d", int(c.QueueOrder))
	}
	for class, p := range c.ClassPriority {
		if class == "" {
			return cfgerr.New("sim", "class_priority", "sim: class priority for the empty class; unclassed jobs are tier 0")
		}
		if p < 0 {
			return cfgerr.New("sim", "class_priority", "sim: class %q: priority must be non-negative, got %d", class, p)
		}
	}
	if c.Triggers.Quantum <= 0 && c.Triggers.Counter <= 0 && !c.Triggers.IdleCore && !c.Triggers.OnArrival {
		return cfgerr.New("sim", "triggers", "sim: at least one trigger must be enabled")
	}
	if math.IsNaN(c.Triggers.Quantum) {
		return cfgerr.New("sim", "triggers", "sim: quantum is NaN")
	}
	if c.IdleBurnSpeed < 0 || math.IsNaN(c.IdleBurnSpeed) || math.IsInf(c.IdleBurnSpeed, 1) {
		return cfgerr.New("sim", "idle_burn_speed", "sim: idle burn speed must be non-negative and finite, got %g", c.IdleBurnSpeed)
	}
	if c.MaxSpeed < 0 || math.IsNaN(c.MaxSpeed) || math.IsInf(c.MaxSpeed, 1) {
		return cfgerr.New("sim", "max_speed", "sim: speed cap must be non-negative and finite (0 = uncapped), got %g", c.MaxSpeed)
	}
	for _, f := range c.Faults {
		if err := f.Validate(c.Cores); err != nil {
			return err
		}
	}
	for _, f := range c.BudgetFaults {
		if err := f.Validate(); err != nil {
			return err
		}
	}
	if err := c.Retry.Validate(); err != nil {
		return err
	}
	return c.Admission.Validate()
}

// QualityFor returns the quality function governing jobs of the given
// class: the ClassQuality entry when one exists, the base Quality
// otherwise (including for the empty legacy class).
func (c Config) QualityFor(class string) quality.Function {
	if class != "" {
		if fn, ok := c.ClassQuality[class]; ok {
			return fn
		}
	}
	return c.Quality
}

// PriorityFor returns the SLO priority tier governing jobs of the given
// class: the ClassPriority entry when one exists, 0 otherwise (including
// for the empty legacy class). Higher values are more important.
func (c Config) PriorityFor(class string) int {
	if class != "" {
		if p, ok := c.ClassPriority[class]; ok {
			return p
		}
	}
	return 0
}

// DepartReason says why a job left the system.
type DepartReason int

// Departure reasons.
const (
	NotDeparted   DepartReason = iota
	Completed                  // processed to full demand before the deadline
	DeadlineHit                // deadline expired with partial (or zero) progress
	PolicyDiscard              // the policy dropped it (uncompletable non-partial, starved running job)
	Shed                       // the admission stage turned it away under overload
	Abandoned                  // the retry policy gave up after evacuation (attempts or deadline exhausted)
)

// String returns the reason's lower-case name ("completed", "deadline",
// …), or "in-system" for a job that has not departed.
func (r DepartReason) String() string {
	switch r {
	case Completed:
		return "completed"
	case DeadlineHit:
		return "deadline"
	case PolicyDiscard:
		return "discarded"
	case Shed:
		return "shed"
	case Abandoned:
		return "abandoned"
	default:
		return "in-system"
	}
}

// JobState tracks one job through the simulation.
type JobState struct {
	Job      job.Job
	Done     float64      // processed volume so far, units
	Core     int          // assigned core, or -1 while waiting
	Reason   DepartReason // why it departed (NotDeparted while in system)
	DepartAt float64      // departure time
	Quality  float64      // quality credited at departure
	Phase    Phase        // dispatch/recovery lifecycle position
	Attempts int          // evacuation→retry cycles so far (see RetryPolicy)
}

// Departed reports whether the job has left the system.
func (j *JobState) Departed() bool { return j.Reason != NotDeparted }

// Remaining returns the outstanding demand, never negative.
func (j *JobState) Remaining() float64 {
	r := j.Job.Demand - j.Done
	if r < 0 {
		return 0
	}
	return r
}

// CoreState is one simulated core as visible to policies.
type CoreState struct {
	Index int
	Jobs  []*JobState // assigned, undeparted jobs in arrival order

	plan        []yds.Segment // absolute-time execution plan from the last invocation
	planVersion int           // plans installed or evacuated so far (snapshots record it)
	planCursor  int           // first segment not fully settled
	segSeq      uint64        // sequence number reserved for plan[0]'s end
	segNext     int           // plan index of the segment end the core's timer holds
	settledTo   float64       // execution integrated up to here
	busyTime    float64       // total executing time
	energy      float64       // dynamic energy from execution
}

// Plan returns the core's current plan (shared slice; policies must not
// mutate it — use State.SetPlan).
func (c *CoreState) Plan() []yds.Segment { return c.plan }

// Idle reports whether the core has no execution planned at or after t.
func (c *CoreState) Idle(t float64) bool {
	for i := c.planCursor; i < len(c.plan); i++ {
		if c.plan[i].End > t {
			return false
		}
	}
	return true
}

// SpeedAt returns the planned speed at time t (0 when idle).
func (c *CoreState) SpeedAt(t float64) float64 {
	for i := c.planCursor; i < len(c.plan); i++ {
		seg := c.plan[i]
		if t >= seg.Start && t < seg.End {
			return seg.Speed
		}
		if seg.Start > t {
			break
		}
	}
	return 0
}

// nextSpeedChange returns the earliest instant after t at which SpeedAt
// may return a different value: the first segment edge (start or end)
// past t, or +Inf when none remains. SpeedAt tests each segment only
// against its own edges, so it is constant from t up to that instant.
func (c *CoreState) nextSpeedChange(t float64) float64 {
	next := math.Inf(1)
	for _, seg := range c.plan[c.planCursor:] {
		if seg.Start > t && seg.Start < next {
			next = seg.Start
		}
		if seg.End > t && seg.End < next {
			next = seg.End
		}
	}
	return next
}

// ReadyJobs converts the core's live jobs to the job.Ready form consumed by
// Online-QE, marking the job currently executing at time t as Running.
func (c *CoreState) ReadyJobs(t float64) []job.Ready {
	return c.AppendReadyJobs(nil, t)
}

// AppendReadyJobs is ReadyJobs appending into dst[:0], letting policies
// reuse one buffer per core across invocations.
func (c *CoreState) AppendReadyJobs(dst []job.Ready, t float64) []job.Ready {
	var runningID job.ID = -1
	for i := c.planCursor; i < len(c.plan); i++ {
		seg := c.plan[i]
		if t >= seg.Start && t < seg.End {
			runningID = seg.ID
			break
		}
		if seg.Start > t {
			break
		}
	}
	dst = dst[:0]
	for _, js := range c.Jobs {
		if js.Departed() {
			continue
		}
		dst = append(dst, job.Ready{Job: js.Job, Done: js.Done, Running: js.Job.ID == runningID})
	}
	return dst
}
