// Engine sessions: the engine's only driver. Start opens a session on a
// whole job slice (Run is Start + Finish); the cluster's streaming pipeline
// (docs/SCALE.md) instead feeds a NewStream session one dispatch epoch at a
// time and advances it to each epoch boundary. Either way every event pops
// in Advance and is handled by processEvent, and memory stays bounded by
// the jobs in flight because departed jobs are folded into the running
// Result the moment their deadlines pass.
//
// A session fed in several windows matches Run on the materialized stream
// bit for bit in quality, energy and per-class figures — the result fold
// performs the same float additions in the same (arrival) order — with two
// documented divergences. First, event tie-breaks: sequence numbers are
// reserved per Feed, so equal-time events can pop in a different FIFO order
// than when the whole slice is handed over at once (arrival times,
// deadlines, and quantum ticks are continuous quantities, so exact ties
// have measure zero in generated workloads). Second, engine lifetime: a
// session holding its whole workload stops at its final departure, while
// one fed in windows keeps its periodic quantum alive until the caller
// declares the fleet-wide stream exhausted (ExpectMore(false)) — so Events
// and Invocation counts can exceed Run's for engines that idle through the
// fleet's tail.
package sim

import (
	"math"

	"dessched/internal/cfgerr"
	"dessched/internal/job"
)

// keepBudgetWindows bounds the closed ExtendBudget windows retained for
// audits and telemetry flushes that look a few epochs back (EpochSampler
// flushes lag ~2 epochs); older windows are pruned so BudgetAt stays O(1)
// over a run of any length.
const keepBudgetWindows = 16

// Stream is an engine session. The call protocol per dispatch epoch
// [t0, t1) is: ExtendBudget(t0, t1, frac) if the budget is externally
// water-filled, Feed(arrivals with Release in [t0, t1)), Advance(t1); after
// the last epoch, ExpectMore(false) and Finish. A session opened by Start
// already holds its whole workload: advance it (or Checkpoint it) and
// Finish. A Stream is single-goroutine.
type Stream struct {
	e          *engine
	validator  job.StreamValidator
	started    bool // static events pushed (on the first non-empty feed)
	drained    bool // terminal: every fed job departed, no more arrivals
	advancedTo float64
	fed        int

	// Budget streaming state: windows appended to cfg.BudgetFaults by
	// ExtendBudget, with the newest held provisionally open so adjacent
	// equal-fraction epochs merge into one window.
	baseWindows int     // creation-time cfg windows — never pruned
	openFrac    float64 // fraction of the provisionally open window; 1 = none
	baseFP      uint64  // creation-time config fingerprint (see Snapshot)
}

// NewStream validates the configuration and opens an empty session.
func NewStream(cfg Config, p Policy) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := newEngine(cfg, p)
	e.moreArrivals = true
	return &Stream{
		e:           e,
		baseWindows: len(cfg.BudgetFaults),
		openFrac:    1,
		baseFP:      FingerprintConfig(&e.cfg, p.Name()),
	}, nil
}

// Start opens a session holding the whole workload: jobs in any order,
// valid with deadlines agreeable within each class
// (job.ValidateAllByClass), each reserving its event sequence numbers in
// slice order, and no further arrivals expected. The session's clock starts
// at the first release. Run is Start + Finish; Checkpoint in between takes
// periodic snapshots.
func Start(cfg Config, jobs []job.Job, p Policy) (*Stream, error) {
	st, err := NewStream(cfg, p)
	if err != nil {
		return nil, err
	}
	if err := job.ValidateAllByClass(jobs); err != nil {
		return nil, err
	}
	st.ExpectMore(false)
	st.feed(jobs)
	st.advancedTo = st.e.firstRelease
	return st, nil
}

// Feed appends the next window of arrivals. Jobs must arrive in release
// order at or after the last Advance time, valid with per-class agreeable
// deadlines — checked incrementally, so an invalid stream fails at the
// offending job instead of at the end.
func (st *Stream) Feed(jobs []job.Job) error {
	for i := range jobs {
		if err := st.validator.Check(jobs[i]); err != nil {
			return err
		}
		if jobs[i].Release < st.advancedTo {
			return cfgerr.New("sim", "stream", "sim: job %d released at %g, but the stream already advanced to %g", jobs[i].ID, jobs[i].Release, st.advancedTo)
		}
	}
	st.feed(jobs)
	return nil
}

// feed hands validated jobs to the engine. The first non-empty feed opens
// the run: it records the first release and registers the static events in
// a fixed order — arrivals and deadlines, the quantum tick at the first
// release, core fault edges, then budget-fault edges — so FIFO tie-breaks
// among simultaneous static events do not depend on how the workload was
// fed.
func (st *Stream) feed(jobs []job.Job) {
	e := st.e
	if len(jobs) == 0 {
		return
	}
	e.addArrivals(jobs)
	st.fed += len(jobs)
	if !st.started {
		st.started = true
		e.firstRelease = e.arrivals[e.nextArrival].js.Job.Release
		if e.cfg.Triggers.Quantum > 0 {
			e.events.Push(e.firstRelease, simEvent{kind: evkQuantum})
			e.quantumLive = true
		}
		for _, f := range e.cfg.Faults {
			e.events.Push(f.Start, simEvent{kind: evkFaultEdge})
			if !math.IsInf(f.End, 1) {
				e.events.Push(f.End, simEvent{kind: evkFaultEdge})
			}
		}
		for _, f := range e.cfg.BudgetFaults[:st.baseWindows] {
			e.events.Push(f.Start, simEvent{kind: evkFaultEdge})
			e.events.Push(f.End, simEvent{kind: evkFaultEdge})
		}
		// Windows declared through ExtendBudget before the first arrival
		// deferred their edge events (see ExtendBudget); push the retained
		// ones now. The provisionally open last window contributes only its
		// Start edge — its End edge comes at close.
		appended := e.cfg.BudgetFaults[st.baseWindows:]
		for i, f := range appended {
			e.events.Push(f.Start, simEvent{kind: evkFaultEdge})
			if i < len(appended)-1 || st.openFrac == 1 {
				e.events.Push(f.End, simEvent{kind: evkFaultEdge})
			}
		}
	}
}

// ExtendBudget declares the effective power-budget fraction over the epoch
// [t0, t1): the streamed analogue of one entry of a pre-materialized
// BudgetFaults schedule. Epochs must be contiguous and non-decreasing in
// time. Consecutive equal-fraction epochs extend one window in place —
// one window and one pair of fault-edge events, as a materialized schedule
// would hold; a fraction of 1 closes any open window and records nothing.
//
// Edge events for windows declared before the first arrival are deferred to
// the first Feed, so a session that is never fed holds no event state at
// all (a fleet can keep every server's budget schedule current without
// growing its idle members).
func (st *Stream) ExtendBudget(t0, t1, frac float64) {
	e := st.e
	e.budgetChanged()
	if st.openFrac != 1 {
		last := &e.cfg.BudgetFaults[len(e.cfg.BudgetFaults)-1]
		if frac == st.openFrac && t0 == last.End {
			last.End = t1 // merge: extend the open window in place
			return
		}
		if st.started {
			e.events.Push(last.End, simEvent{kind: evkFaultEdge})
		}
		st.openFrac = 1
	}
	if frac == 1 {
		return
	}
	e.cfg.BudgetFaults = append(e.cfg.BudgetFaults, BudgetFault{Start: t0, End: t1, Fraction: frac})
	if st.started {
		e.events.Push(t0, simEvent{kind: evkFaultEdge})
	}
	st.openFrac = frac
}

// CloseBudget seals the budget schedule after the final epoch: the open
// window (if any) stops extending and its closing fault edge is pushed.
func (st *Stream) CloseBudget() {
	e := st.e
	if st.openFrac != 1 {
		last := e.cfg.BudgetFaults[len(e.cfg.BudgetFaults)-1]
		if st.started {
			e.events.Push(last.End, simEvent{kind: evkFaultEdge})
		}
		st.openFrac = 1
	}
}

// BudgetAt returns the effective budget at t under the windows declared so
// far — the live view EpochSampler needs (its by-value config copy predates
// the windows).
func (st *Stream) BudgetAt(t float64) float64 { return st.e.cfg.BudgetAt(t) }

// ExpectMore tells the engine whether later Feed calls may still deliver
// arrivals. It starts true. While true the periodic quantum stays alive
// through idle gaps; setting it false lets the run stop at its final
// departure. The caller must set it false before the Advance call that
// covers the stream's tail (or before Finish at the latest).
func (st *Stream) ExpectMore(more bool) { st.e.moreArrivals = more }

// Advance processes every pending event strictly before until, then
// retires departed jobs whose deadlines have passed from memory. Advance
// times must be non-decreasing.
func (st *Stream) Advance(until float64) error {
	e := st.e
	if until < st.advancedTo {
		return cfgerr.New("sim", "stream", "sim: Advance(%g) before the stream's current time %g", until, st.advancedTo)
	}
	if !st.drained {
		for {
			it, ok := e.nextEvent(until)
			if !ok {
				break
			}
			stop, err := e.processEvent(it)
			if err != nil {
				return err
			}
			if stop {
				st.drained = true
				break
			}
		}
	}
	st.advancedTo = until
	st.compact()
	st.pruneBudget()
	return nil
}

// compact folds the departed prefix of e.all into the running result and
// drops the references. A job is foldable once its deadline lies strictly
// before the advanced-to time: its arrival and deadline events have popped,
// and any retry event it scheduled (always at or before the deadline) has
// too, so nothing in the event heap can reference it. Folding strictly
// front-to-back keeps the fold in arrival-push order.
func (st *Stream) compact() {
	e := st.e
	k := 0
	for k < len(e.all) {
		js := e.all[k]
		if !js.Departed() || js.Job.Deadline >= st.advancedTo {
			break
		}
		e.foldJob(js)
		k++
	}
	if k == 0 {
		return
	}
	n := copy(e.all, e.all[k:])
	for i := n; i < len(e.all); i++ {
		e.all[i] = nil // release for GC
	}
	e.all = e.all[:n]
}

// pruneBudget drops old closed ExtendBudget windows, keeping the base
// config windows and the most recent keepBudgetWindows as look-back
// history. Windows are disjoint, so removing a window only changes BudgetAt
// for instants inside it — all strictly before the retained history.
func (st *Stream) pruneBudget() {
	e := st.e
	appended := e.cfg.BudgetFaults[st.baseWindows:]
	closed := len(appended)
	if st.openFrac != 1 {
		closed-- // the provisionally open window is always retained
	}
	drop := closed - keepBudgetWindows
	if drop <= 0 {
		return
	}
	n := copy(appended, appended[drop:])
	e.cfg.BudgetFaults = e.cfg.BudgetFaults[:st.baseWindows+n]
	e.budgetChanged()
}

// Checkpoint drives a session that holds its whole workload to the end of
// its work, handing sink a snapshot every `every` simulated seconds — at
// the session's instant plus every, plus 2·every, and so on: counted from
// the first release for a session opened by Start, from the snapshot's
// instant for a restored one — for as long as jobs remain in flight or
// pending. A sink error aborts the drive and is returned; either way the
// caller then calls Finish (or drops the session). Snapshots never perturb
// the run: Finish returns what it would have without them.
func (st *Stream) Checkpoint(every float64, sink func(*Snapshot) error) error {
	if !(every > 0) || math.IsInf(every, 1) {
		return cfgerr.New("sim", "checkpoint", "sim: checkpoint period must be positive and finite, got %g", every)
	}
	if sink == nil {
		return cfgerr.New("sim", "checkpoint", "sim: checkpoint sink is required")
	}
	e := st.e
	for at := st.advancedTo + every; e.undeparted > 0 || e.pendingArrivals() > 0; at += every {
		if at <= st.advancedTo {
			return cfgerr.New("sim", "checkpoint", "sim: checkpoint period %g is too small to advance past %g", every, st.advancedTo)
		}
		if err := st.Advance(at); err != nil {
			return err
		}
		if e.undeparted == 0 && e.pendingArrivals() == 0 {
			break
		}
		snap, err := st.Snapshot()
		if err != nil {
			return err
		}
		if err := sink(snap); err != nil {
			return err
		}
	}
	return nil
}

// Finish drains the engine to completion — Advance to +Inf while jobs
// remain — and returns the aggregate result after a final settle. A
// session that never fed a job returns the empty result.
func (st *Stream) Finish() (Result, error) {
	e := st.e
	e.moreArrivals = false
	if !st.drained && e.undeparted+e.pendingArrivals() > 0 {
		if err := st.Advance(math.Inf(1)); err != nil {
			return Result{}, err
		}
	}
	last := e.lastDeparture
	for _, c := range e.cores {
		e.settleCore(c, last)
	}
	return e.result(e.firstRelease, last), nil
}

// Live reports how many fed jobs are still held in memory (in flight or
// awaiting fold) — the quantity the bounded-memory guarantee is about.
func (st *Stream) Live() int { return len(st.e.all) }

// Fed reports how many jobs have been fed so far.
func (st *Stream) Fed() int { return st.fed }
