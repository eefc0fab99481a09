// Streamed engine sessions: the incremental form of Run for the cluster's
// streaming pipeline (docs/SCALE.md). A Stream is fed arrivals one dispatch
// epoch at a time, advanced to each epoch boundary, and finished after the
// last feed; memory stays bounded by the jobs in flight because departed
// jobs are folded into the running Result the moment their deadlines pass.
//
// Equivalence to the batch path: Feed/Advance/Finish pop and process the
// same events through the same processEvent body, and the result fold
// performs the same float additions in the same (arrival) order, so
// quality, energy, and per-class figures are bit-identical to Run on the
// materialized stream. Two documented divergences remain. First, event
// tie-breaks: equal-time events can pop in a different FIFO order than the
// batch run pushes them (arrival times, deadlines, and quantum ticks are
// continuous quantities, so exact ties have measure zero in generated
// workloads). Second, engine lifetime: a batch engine knows its last
// arrival up front and stops at its final departure, while a streamed
// engine must keep its periodic quantum alive until the caller declares the
// fleet-wide stream exhausted (ExpectMore(false)) — so Events and
// Invocation counts can exceed the batch run's for engines that idle
// through the fleet's tail.
package sim

import (
	"dessched/internal/cfgerr"
	"dessched/internal/job"
)

// keepBudgetWindows bounds the closed ExtendBudget windows retained for
// audits and telemetry flushes that look a few epochs back (EpochSampler
// flushes lag ~2 epochs); older windows are pruned so BudgetAt stays O(1)
// over a run of any length.
const keepBudgetWindows = 16

// Stream is an incremental engine session. The call protocol per dispatch
// epoch [t0, t1) is: ExtendBudget(t0, t1, frac) if the budget is externally
// water-filled, Feed(arrivals with Release in [t0, t1)), Advance(t1); after
// the last epoch, ExpectMore(false) and Finish. A Stream is single-
// goroutine, like the batch engine.
type Stream struct {
	e          *engine
	validator  job.StreamValidator
	started    bool // static events pushed (on the first non-empty Feed)
	drained    bool // terminal: every fed job departed, no more arrivals
	advancedTo float64
	fed        int

	// Budget streaming state: windows appended to cfg.BudgetFaults by
	// ExtendBudget, with the newest held provisionally open so adjacent
	// equal-fraction epochs merge into one window exactly as the batch
	// budget scheduler merges them.
	baseWindows int     // creation-time cfg windows — never pruned
	openFrac    float64 // fraction of the provisionally open window; 1 = none
	baseFP      uint64  // creation-time config fingerprint (see Snapshot)
}

// NewStream validates the configuration and opens an empty session.
// Config.Checkpoint is rejected: streamed runs snapshot at epoch
// boundaries through Stream.Snapshot (driven by the cluster layer), not on
// the engine's sim-time timer.
func NewStream(cfg Config, p Policy) (*Stream, error) {
	if cfg.Checkpoint != nil {
		return nil, cfgerr.New("sim", "checkpoint", "sim: Checkpoint is not supported on streamed runs; snapshot at epoch boundaries via Stream.Snapshot")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := newEngine(cfg, p)
	e.fold = &resultFold{}
	e.moreArrivals = true
	return &Stream{
		e:           e,
		baseWindows: len(cfg.BudgetFaults),
		openFrac:    1,
		baseFP:      fingerprintConfig(&e.cfg, p.Name()),
	}, nil
}

// Feed appends the next window of arrivals. Jobs must arrive in release
// order at or after the last Advance time, valid with per-class agreeable
// deadlines — checked incrementally, so an invalid stream fails at the
// offending job instead of at the end.
func (st *Stream) Feed(jobs []job.Job) error {
	e := st.e
	for i := range jobs {
		if err := st.validator.Check(jobs[i]); err != nil {
			return err
		}
		if jobs[i].Release < st.advancedTo {
			return cfgerr.New("sim", "stream", "sim: job %d released at %g, but the stream already advanced to %g", jobs[i].ID, jobs[i].Release, st.advancedTo)
		}
	}
	if len(jobs) == 0 {
		return nil
	}
	e.addArrivals(jobs)
	st.fed += len(jobs)
	if !st.started {
		// First arrivals: register the static events in Run's exact order
		// — arrivals and deadlines, then the quantum at the first release,
		// then fault and budget-fault edges — so FIFO tie-breaks among
		// simultaneous static events match the batch run's.
		st.started = true
		e.start(jobs[0].Release)
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
	return nil
}

// ExtendBudget declares the effective power-budget fraction over the epoch
// [t0, t1): the streamed analogue of one entry of a pre-materialized
// BudgetFaults schedule. Epochs must be contiguous and non-decreasing in
// time. Consecutive equal-fraction epochs extend one window in place —
// reproducing the batch scheduler's merged windows and their fault-edge
// events exactly; a fraction of 1 closes any open window and records
// nothing, as the batch path emits no window for full budget.
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

// Advance processes every pending event strictly before until, mirroring
// the batch run loop, then retires departed jobs whose deadlines have
// passed from memory. Advance times must be non-decreasing.
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
// front-to-back keeps the fold in arrival order — the batch result order.
func (st *Stream) compact() {
	e := st.e
	k := 0
	for k < len(e.all) {
		js := e.all[k]
		if !js.Departed() || js.Job.Deadline >= st.advancedTo {
			break
		}
		e.foldJob(e.fold, js)
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

// Finish drains the engine to completion and returns the aggregate result:
// the batch run's tail loop, final settle, and result fold. A stream that
// never fed a job returns the batch empty-stream result.
func (st *Stream) Finish() (Result, error) {
	e := st.e
	e.moreArrivals = false
	if st.fed == 0 {
		return e.result(0, 0), nil
	}
	if !st.drained && e.undeparted+e.pendingArrivals() > 0 {
		return e.run()
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
