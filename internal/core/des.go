// Package core implements the paper's primary contribution: DES (Dynamic
// Equal Sharing, §IV), the online heuristic for scheduling best-effort
// interactive services on a multicore server with a global power budget.
//
// DES = C-RR + WF + Online-QE:
//
//  1. Ready-job distribution: cumulative round-robin spreads newly arrived
//     jobs across cores (non-migratory once bound).
//  2. Budget-free independent-core scheduling: Energy-OPT with unlimited
//     power computes each core's requested power; if the total fits the
//     budget every job can be satisfied and those plans are used directly.
//  3. Dynamic power distribution: otherwise Water-Filling splits the budget
//     according to the requests.
//  4. Budget-bounded independent-core scheduling: Online-QE plans each core
//     under its distributed budget.
//
// The same policy runs on three architecture models (§V-A): C-DVFS (full
// DES), S-DVFS (all cores share one speed: requests are leveled to the
// maximum before distribution and the Online-QE energy step is skipped) and
// No-DVFS (fixed base speed, quality step only).
package core

import (
	"encoding/json"
	"fmt"
	"math"

	"dessched/internal/dist"
	"dessched/internal/job"
	"dessched/internal/power"
	"dessched/internal/qeopt"
	"dessched/internal/sim"
	"dessched/internal/yds"
)

// Arch selects the DVFS capability of the simulated processor (§V-A).
type Arch int

// Architecture models.
const (
	CDVFS  Arch = iota // per-core DVFS: the architecture DES is designed for
	SDVFS              // system-level DVFS: one shared speed, changeable over time
	NoDVFS             // no DVFS: fixed base speed, no energy management
)

func (a Arch) String() string {
	switch a {
	case CDVFS:
		return "C-DVFS"
	case SDVFS:
		return "S-DVFS"
	case NoDVFS:
		return "No-DVFS"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// coreScratch holds one core's reusable planning state. The two plan
// buffers ping-pong: the simulator's installed plan aliases one of them
// (SetPlan retains the segment slice), so each new plan is built into the
// other and the roles swap at install.
type coreScratch struct {
	planner qeopt.Planner
	ready   []job.Ready
	tasks   []yds.Task
	reqScr  yds.Scratch
	bufs    [2]qeopt.Plan
	cur     int // index of the buffer holding the installed plan
}

// DES is the Dynamic Equal Sharing policy. The zero value is not usable;
// construct with New. DES implements sim.Policy.
type DES struct {
	arch Arch
	// Distribution can be switched to plain (non-cumulative) round-robin
	// for the ablation study of §IV-B's cumulative property.
	plainRR bool
	// staticPower replaces the WF distribution with a static equal share —
	// the ablation isolating §IV-C's contribution.
	staticPower bool
	// naive disables every hot-path optimization: per-core planners, plan
	// buffers, the request-only YDS shortcut, and the WF memo. Planning
	// then runs the original allocate-everything structure through the
	// package-level entry points — the reference the golden equivalence
	// test compares against.
	naive bool
	crr   *dist.CRR

	// Reusable per-invocation state (see coreScratch for per-core state).
	cores   []coreScratch
	avail   []bool
	targets []int
	victims []*sim.JobState
	filler  dist.Filler

	requests []float64
	budgets  []float64
	speeds   []float64

	// WF memo: when this invocation's request vector, effective budget and
	// power environment are bit-identical to the previous invocation's, the
	// distribution is reused instead of recomputed. WF is a pure function,
	// so the reused vector is the one it would return.
	wfValid  bool
	wfBudget float64
	wfReqs   []float64
	wfModel  power.Model
	wfLadder power.Ladder

	// Memoized DynamicPower(MaxSpeed), a run-wide constant.
	maxPowValid bool
	maxPowModel power.Model
	maxPowSpeed float64
	maxPow      float64
}

// New returns a DES policy for the given architecture.
func New(arch Arch) *DES { return &DES{arch: arch} }

// NewPlainRR returns DES with plain (reset-every-invocation) round-robin
// distribution instead of C-RR — the ablation comparator.
func NewPlainRR(arch Arch) *DES { return &DES{arch: arch, plainRR: true} }

// NewStaticPower returns DES with static equal power sharing instead of the
// dynamic Water-Filling distribution — the ablation comparator for §IV-C.
func NewStaticPower(arch Arch) *DES { return &DES{arch: arch, staticPower: true} }

// Naive switches the policy to naive planning — recompute everything, every
// invocation, through freshly allocated buffers, with no memoization or
// incremental shortcuts — and returns the policy for chaining. The schedule
// it produces is required (and tested) to be byte-identical to the
// optimized path; it exists as the reference for that equivalence test and
// as the before-side of benchmark comparisons.
func (d *DES) Naive() *DES { d.naive = true; return d }

// Name implements sim.Policy.
func (d *DES) Name() string {
	n := "DES"
	if d.plainRR {
		n = "DES-plainRR"
	}
	if d.staticPower {
		n += "-static"
	}
	return n + "/" + d.arch.String()
}

// Arch returns the architecture model the policy runs on.
func (d *DES) Arch() Arch { return d.arch }

// ApplyArch adjusts a simulator config for the architecture: No-DVFS cores
// cannot scale down, so they burn the base speed's power even when idle
// (DESIGN.md, assumption 2).
func ApplyArch(cfg *sim.Config, arch Arch) {
	if arch == NoDVFS {
		cfg.IdleBurnSpeed = baseSpeed(cfg)
	} else {
		cfg.IdleBurnSpeed = 0
	}
}

// baseSpeed is the fixed speed of a No-DVFS core and the cap of an S-DVFS
// core: the equal power share, rounded down to the ladder under discrete
// scaling.
func baseSpeed(cfg *sim.Config) float64 {
	s := cfg.Power.SpeedFor(cfg.Budget / float64(cfg.Cores))
	if cfg.MaxSpeed > 0 {
		s = math.Min(s, cfg.MaxSpeed)
	}
	if !cfg.Ladder.Continuous() {
		down, ok := cfg.Ladder.RoundDown(s)
		if !ok {
			return 0
		}
		s = down
	}
	return s
}

// Plan implements sim.Policy: one DES invocation (§IV-D).
func (d *DES) Plan(now float64, s *sim.State) {
	m := len(s.Cores)
	if d.crr == nil || d.crr.Cores() != m {
		// A cursor restored from a snapshot taken at another core count
		// is dropped; one this policy built always matches.
		d.crr = dist.NewCRR(m)
	}
	if d.plainRR {
		d.crr.Reset()
	}
	if len(d.cores) != m {
		d.cores = make([]coreScratch, m)
		d.wfValid = false
	}

	// Step 1: ready-job distribution via C-RR, skipping outaged cores so
	// evacuated (and fresh) jobs land where they can actually run.
	waiting := s.DrainQueue()
	var targets []int
	if d.naive {
		targets = d.crr.AssignAvail(len(waiting), s.AvailableCores())
	} else {
		d.avail = s.AppendAvailableCores(d.avail)
		d.targets = d.crr.AppendAssignAvail(d.targets, len(waiting), d.avail)
		targets = d.targets
	}
	for i, js := range waiting {
		s.Bind(js, targets[i])
	}

	switch d.arch {
	case NoDVFS:
		d.planFixedSpeed(now, s, baseSpeed(s.Cfg))
	case SDVFS:
		d.planSDVFS(now, s)
	default:
		d.planCDVFS(now, s)
	}
}

// requestSpeed computes a core's requested operating point — the speed of
// the first segment of its budget-free Energy-OPT schedule — without
// materializing the schedule (yds.SameReleaseRequest runs only the first
// critical-prefix selection, which is what determines that speed). It also
// refreshes the core's ready and task scratch for the later planning steps.
func (cs *coreScratch) requestSpeed(now float64, c *sim.CoreState) (float64, error) {
	cs.ready = c.AppendReadyJobs(cs.ready, now)
	tasks := cs.tasks[:0]
	for _, r := range cs.ready {
		if r.Deadline <= now || r.Remaining() <= 0 {
			continue
		}
		tasks = append(tasks, yds.Task{ID: r.ID, Release: now, Deadline: r.Deadline, Volume: r.Remaining()})
	}
	cs.tasks = tasks
	return yds.SameReleaseRequest(now, tasks, &cs.reqScr)
}

// maxSpeedPower memoizes DynamicPower(MaxSpeed) — constant across a run and
// previously recomputed (one math.Pow per core) at every invocation.
func (d *DES) maxSpeedPower(m power.Model, speed float64) float64 {
	if !(d.maxPowValid && d.maxPowModel == m && d.maxPowSpeed == speed) {
		d.maxPowModel, d.maxPowSpeed, d.maxPow, d.maxPowValid = m, speed, m.DynamicPower(speed), true
	}
	return d.maxPow
}

func ladderIdentical(a, b power.Ladder) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// wfHit reports whether the memoized distribution is valid for this
// invocation: bit-equal request vector and budget under the same power
// environment.
func (d *DES) wfHit(budget float64, requests []float64, m power.Model, l power.Ladder) bool {
	if !d.wfValid || len(requests) != len(d.wfReqs) {
		return false
	}
	if math.Float64bits(budget) != math.Float64bits(d.wfBudget) {
		return false
	}
	if d.wfModel != m || !ladderIdentical(d.wfLadder, l) {
		return false
	}
	for i, r := range requests {
		if math.Float64bits(r) != math.Float64bits(d.wfReqs[i]) {
			return false
		}
	}
	return true
}

func (d *DES) saveWF(budget float64, requests []float64, m power.Model, l power.Ladder) {
	d.wfBudget = budget
	d.wfReqs = append(d.wfReqs[:0], requests...)
	d.wfModel, d.wfLadder = m, l
	d.wfValid = true
}

// planFixedSpeed plans every core at one fixed speed: the No-DVFS path and
// the inner step of S-DVFS.
func (d *DES) planFixedSpeed(now float64, s *sim.State, speed float64) {
	for i, c := range s.Cores {
		if d.naive {
			plan, err := qeopt.OnlineFixedSpeed(now, c.ReadyJobs(now), speed)
			if err != nil {
				panic(fmt.Sprintf("core: fixed-speed planning failed: %v", err))
			}
			d.install(s, c.Index, plan)
			continue
		}
		cs := &d.cores[i]
		cs.ready = c.AppendReadyJobs(cs.ready, now)
		next := 1 - cs.cur
		plan, err := cs.planner.FixedSpeed(cs.bufs[next], now, cs.ready, speed)
		if err != nil {
			panic(fmt.Sprintf("core: fixed-speed planning failed: %v", err))
		}
		cs.bufs[next] = plan
		d.install(s, c.Index, plan)
		cs.cur = next
	}
}

// planSDVFS levels every core's requested power to the maximum request and
// equal-shares the budget, so all cores run at one common speed (§V-A).
func (d *DES) planSDVFS(now float64, s *sim.State) {
	maxReq := 0.0
	for i, c := range s.Cores {
		var req float64
		var err error
		if d.naive {
			req, _, err = unlimitedPlan(now, c)
		} else {
			req, err = d.cores[i].requestSpeed(now, c)
		}
		if err != nil {
			panic(fmt.Sprintf("core: budget-free planning failed: %v", err))
		}
		p := s.Cfg.Power.DynamicPower(req)
		if p > maxReq {
			maxReq = p
		}
	}
	perCore := math.Min(maxReq, s.Budget()/float64(len(s.Cores)))
	speed := s.Cfg.Power.SpeedFor(perCore)
	if s.Cfg.MaxSpeed > 0 {
		speed = math.Min(speed, s.Cfg.MaxSpeed)
	}
	if !s.Cfg.Ladder.Continuous() {
		if down, ok := s.Cfg.Ladder.RoundDown(speed); ok {
			speed = down
		} else {
			speed = 0
		}
	}
	d.planFixedSpeed(now, s, speed)
}

// planCDVFS is the full DES: budget-free Energy-OPT per core, the budget
// check, WF distribution, and budget-bounded Online-QE (§IV-D steps 2-4).
// The budget is the effective (possibly budget-faulted) one, so WF
// redistributes a smaller pool during budget-drop windows.
//
// The optimized path differs from planCDVFSNaive only in what it avoids
// recomputing, never in what it computes: core requests come from the
// request-only YDS form (bit-identical to the first-segment speed of the
// full schedule, which is built only when the step-2 exit actually installs
// it), the WF distribution is reused when its inputs are bit-equal to the
// previous invocation's, and all intermediate buffers are recycled. A core
// with no assigned job skips every planner: it requests 0 and gets the
// empty plan, the values Energy-OPT and Online-QE return for an empty
// ready set.
func (d *DES) planCDVFS(now float64, s *sim.State) {
	if d.naive {
		d.planCDVFSNaive(now, s)
		return
	}
	m := len(s.Cores)
	budget := s.Budget()
	requests := d.requests[:0]
	total := 0.0
	maxSpeedPow := math.Inf(1)
	if s.Cfg.MaxSpeed > 0 {
		maxSpeedPow = d.maxSpeedPower(s.Cfg.Power, s.Cfg.MaxSpeed)
	}
	for i, c := range s.Cores {
		if len(c.Jobs) == 0 {
			// A jobless core requests 0, what Energy-OPT gives an empty
			// ready set; adding it would leave total's bits unchanged.
			requests = append(requests, 0)
			continue
		}
		speed, err := d.cores[i].requestSpeed(now, c)
		if err != nil {
			panic(fmt.Sprintf("core: budget-free planning failed: %v", err))
		}
		r := s.Cfg.Power.DynamicPower(speed)
		if r > maxSpeedPow {
			r = maxSpeedPow
		}
		requests = append(requests, r)
		total += r
	}
	d.requests = requests

	// Step 2 exit: the optimistic schedules fit the budget, every job can
	// be satisfied. (Under discrete scaling the speeds still need ladder
	// rectification, so fall through to the budget-bounded path; under the
	// static-power ablation each core is held to its equal share.)
	fits := total <= budget
	if d.staticPower {
		fits = true
		for _, r := range requests {
			if r > budget/float64(m) {
				fits = false
				break
			}
		}
	}
	if fits && s.Cfg.Ladder.Continuous() && s.Cfg.MaxSpeed == 0 {
		// Materialize the budget-free schedules only now that they are
		// actually being installed; on the (common) budget-constrained path
		// they were never needed, only their first-segment speeds.
		for i, c := range s.Cores {
			if len(c.Jobs) == 0 {
				s.SetPlan(c.Index, nil)
				continue
			}
			cs := &d.cores[i]
			next := 1 - cs.cur
			// requestSpeed left the core's tasks filtered and sorted
			// in reqScr.
			segs, err := yds.SameReleasePrepared(cs.bufs[next].Segments, now, &cs.reqScr)
			if err != nil {
				panic(fmt.Sprintf("core: budget-free planning failed: %v", err))
			}
			cs.bufs[next] = qeopt.Plan{Segments: segs}
			d.install(s, c.Index, cs.bufs[next])
			cs.cur = next
		}
		return
	}

	// Steps 3-4: WF power distribution, then Online-QE per core.
	switch {
	case d.staticPower:
		d.budgets = d.filler.EqualShare(d.budgets, budget, m)
	case !s.Cfg.Ladder.Continuous():
		if !d.wfHit(budget, requests, s.Cfg.Power, s.Cfg.Ladder) {
			d.budgets, d.speeds = d.filler.WaterFillDiscrete(d.budgets, d.speeds, budget, requests, s.Cfg.Power, s.Cfg.Ladder)
			d.saveWF(budget, requests, s.Cfg.Power, s.Cfg.Ladder)
		}
	default:
		if !d.wfHit(budget, requests, s.Cfg.Power, s.Cfg.Ladder) {
			d.budgets = d.filler.WaterFill(d.budgets, budget, requests)
			d.saveWF(budget, requests, s.Cfg.Power, s.Cfg.Ladder)
		}
	}
	for i, c := range s.Cores {
		if len(c.Jobs) == 0 {
			s.SetPlan(c.Index, nil)
			continue
		}
		cs := &d.cores[i]
		cfg := qeopt.Config{
			Power:    s.Cfg.Power,
			Budget:   d.budgets[i],
			Ladder:   s.Cfg.Ladder,
			MaxSpeed: s.Cfg.MaxSpeed,
			TwoSpeed: s.Cfg.TwoSpeedDiscrete,
		}
		next := 1 - cs.cur
		plan, err := cs.planner.Online(cs.bufs[next], cfg, now, cs.ready)
		if err != nil {
			panic(fmt.Sprintf("core: Online-QE failed on core %d: %v", c.Index, err))
		}
		cs.bufs[next] = plan
		d.install(s, c.Index, plan)
		cs.cur = next
	}
}

// planCDVFSNaive is the reference implementation: full materialization and
// fresh allocations at every step, exactly the pre-optimization structure.
func (d *DES) planCDVFSNaive(now float64, s *sim.State) {
	m := len(s.Cores)
	budget := s.Budget()
	requests := make([]float64, m)
	plans := make([][]yds.Segment, m)
	total := 0.0
	for i, c := range s.Cores {
		speed, segs, err := unlimitedPlan(now, c)
		if err != nil {
			panic(fmt.Sprintf("core: budget-free planning failed: %v", err))
		}
		requests[i] = s.Cfg.Power.DynamicPower(speed)
		if s.Cfg.MaxSpeed > 0 {
			requests[i] = math.Min(requests[i], s.Cfg.Power.DynamicPower(s.Cfg.MaxSpeed))
		}
		plans[i] = segs
		total += requests[i]
	}

	fits := total <= budget
	if d.staticPower {
		fits = true
		for _, r := range requests {
			if r > budget/float64(m) {
				fits = false
				break
			}
		}
	}
	if fits && s.Cfg.Ladder.Continuous() && s.Cfg.MaxSpeed == 0 {
		for i, c := range s.Cores {
			d.install(s, c.Index, qeopt.Plan{Segments: plans[i]})
		}
		return
	}

	var budgets []float64
	switch {
	case d.staticPower:
		budgets = dist.EqualShare(budget, m)
	case !s.Cfg.Ladder.Continuous():
		budgets, _ = dist.WaterFillDiscrete(budget, requests, s.Cfg.Power, s.Cfg.Ladder)
	default:
		budgets = dist.WaterFill(budget, requests)
	}
	for i, c := range s.Cores {
		cfg := qeopt.Config{
			Power:    s.Cfg.Power,
			Budget:   budgets[i],
			Ladder:   s.Cfg.Ladder,
			MaxSpeed: s.Cfg.MaxSpeed,
			TwoSpeed: s.Cfg.TwoSpeedDiscrete,
		}
		plan, err := qeopt.Online(cfg, now, c.ReadyJobs(now))
		if err != nil {
			panic(fmt.Sprintf("core: Online-QE failed on core %d: %v", c.Index, err))
		}
		d.install(s, c.Index, plan)
	}
}

// install applies a qeopt plan to a core: discards first (so the plan's
// segment set matches the surviving jobs), then the plan itself. Discards
// are rare, so the victim lookup is a linear scan over the (small) discard
// list instead of a per-install map.
func (d *DES) install(s *sim.State, core int, plan qeopt.Plan) {
	if len(plan.Discarded) > 0 {
		victims := d.victims[:0]
		for _, js := range s.Cores[core].Jobs {
			for _, id := range plan.Discarded {
				if js.Job.ID == id {
					victims = append(victims, js)
					break
				}
			}
		}
		for _, js := range victims { // Discard mutates Cores[core].Jobs
			s.Discard(js)
		}
		for i := range victims {
			victims[i] = nil // drop refs for the GC
		}
		d.victims = victims[:0]
	}
	s.SetPlan(core, plan.Segments)
}

// unlimitedPlan runs Energy-OPT on a core's outstanding work assuming an
// unbounded budget (§IV-D step 2). It returns the speed of the first
// segment — the core's requested operating point, maximal because the
// same-release YDS profile is non-increasing — and the segments.
func unlimitedPlan(now float64, c *sim.CoreState) (speed float64, segs []yds.Segment, err error) {
	var tasks []yds.Task
	for _, r := range c.ReadyJobs(now) {
		if r.Deadline <= now || r.Remaining() <= 0 {
			continue
		}
		tasks = append(tasks, yds.Task{ID: r.ID, Release: now, Deadline: r.Deadline, Volume: r.Remaining()})
	}
	sched, err := yds.SameRelease(now, tasks)
	if err != nil {
		return 0, nil, err
	}
	if len(sched.Segments) == 0 {
		return 0, nil, nil
	}
	return sched.Segments[0].Speed, sched.Segments, nil
}

// desState is DES's serialized cross-invocation state: the C-RR cursor.
// Everything else DES keeps between invocations (WF memo, plan buffers,
// scratch slices) is a pure cache that rebuilds identically on the next
// invocation, so only the cursor needs to survive a checkpoint.
type desState struct {
	Cores     int `json:"cores"`      // CRR width, to rebuild the distributor
	CRRCursor int `json:"crr_cursor"` // -1 when the distributor was never created
}

// SavePolicyState implements sim.StatefulPolicy: it captures the
// cumulative round-robin cursor so a resumed run continues distributing
// jobs exactly where the snapshotted run left off.
func (d *DES) SavePolicyState() ([]byte, error) {
	st := desState{CRRCursor: -1}
	if d.crr != nil {
		st.Cores = d.crr.Cores()
		st.CRRCursor = d.crr.Cursor()
	}
	return json.Marshal(st)
}

// LoadPolicyState implements sim.StatefulPolicy.
func (d *DES) LoadPolicyState(b []byte) error {
	var st desState
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("core: decoding DES state: %w", err)
	}
	if st.CRRCursor < 0 {
		d.crr = nil
		return nil
	}
	if st.Cores <= 0 || st.CRRCursor >= st.Cores {
		return fmt.Errorf("core: DES state cursor %d out of range [0, %d)", st.CRRCursor, st.Cores)
	}
	d.crr = dist.NewCRR(st.Cores)
	d.crr.SetCursor(st.CRRCursor)
	return nil
}
