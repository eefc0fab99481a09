// Session snapshots, the engine's one checkpoint format. A session is
// snapshotted by its driver between Advance calls — Stream.Checkpoint at
// fixed sim-time periods, the cluster layer at dispatch epoch boundaries —
// because only the driver knows when the fed prefix of the workload is
// consistent. The snapshot is the engine state (jobs not yet folded, queue,
// cores, pending events, counters) plus a StreamState: the running result
// fold, the stream validator, the session cursor, and the ExtendBudget
// windows appended since creation. Everything is O(live jobs + classes),
// never O(jobs fed). RestoreStream also reads the legacy files the retired
// sim-time checkpoint timer wrote, which carry no StreamState.
package sim

import (
	"math"
	"sort"

	"dessched/internal/cfgerr"
	"dessched/internal/job"
)

// StreamState is the serializable session state beyond the engine fields
// of a Snapshot.
type StreamState struct {
	AdvancedTo   float64 `json:"advanced_to"`
	Fed          int     `json:"fed"`
	Started      bool    `json:"started,omitempty"`
	Drained      bool    `json:"drained,omitempty"`
	MoreArrivals bool    `json:"more_arrivals"`

	// Budget streaming state: how many BudgetFaults windows the creation
	// config carried, the windows ExtendBudget appended after them (post-
	// pruning), and the fraction of the provisionally open last window
	// (1 = none open).
	BaseWindows int           `json:"base_windows"`
	OpenFrac    float64       `json:"open_frac"`
	Appended    []BudgetFault `json:"appended,omitempty"`

	Fold      FoldState                `json:"fold"`
	Validator job.StreamValidatorState `json:"validator"`
}

// FoldState is the serialized running result fold: the per-job statistics
// of every job already retired from memory, in arrival order.
type FoldState struct {
	Arrived    int           `json:"arrived"`
	Quality    float64       `json:"quality"`
	MaxQuality float64       `json:"max_quality"`
	Completed  int           `json:"completed,omitempty"`
	Deadlined  int           `json:"deadlined,omitempty"`
	Discarded  int           `json:"discarded,omitempty"`
	Abandoned  int           `json:"abandoned,omitempty"`
	Classed    bool          `json:"classed,omitempty"`
	Classes    []ClassResult `json:"fold_classes,omitempty"` // sorted by class name
	Jobs       []JobOutcome  `json:"jobs,omitempty"`         // only with CollectJobs
}

// Snapshot captures the session between two Advance calls. The fingerprint
// pins the creation-time configuration (before any ExtendBudget windows),
// so RestoreStream must be offered that same configuration. The snapshot is
// fully detached; the session remains usable.
func (st *Stream) Snapshot() (*Snapshot, error) {
	e := st.e
	snap := e.snapshot(st.advancedTo)
	snap.Fingerprint = st.baseFP
	f := &e.fold
	fold := FoldState{
		Arrived:    f.arrived,
		Quality:    f.quality,
		MaxQuality: f.maxQuality,
		Completed:  f.completed,
		Deadlined:  f.deadlined,
		Discarded:  f.discarded,
		Abandoned:  f.abandoned,
		Classed:    f.classed,
	}
	if len(f.byClass) > 0 {
		names := make([]string, 0, len(f.byClass))
		for name := range f.byClass {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fold.Classes = append(fold.Classes, *f.byClass[name])
		}
	}
	if len(f.jobs) > 0 {
		fold.Jobs = append([]JobOutcome(nil), f.jobs...)
	}
	snap.Stream = &StreamState{
		AdvancedTo:   st.advancedTo,
		Fed:          st.fed,
		Started:      st.started,
		Drained:      st.drained,
		MoreArrivals: e.moreArrivals,
		BaseWindows:  st.baseWindows,
		OpenFrac:     st.openFrac,
		Appended:     append([]BudgetFault(nil), e.cfg.BudgetFaults[st.baseWindows:]...),
		Fold:         fold,
		Validator:    st.validator.State(),
	}
	return snap, nil
}

// RestoreStream reopens a session from a snapshot taken by Stream.Snapshot.
// cfg and p must be the creation-time configuration and policy of the
// original session (checked via the fingerprint); windows appended through
// ExtendBudget are reinstalled from the snapshot. The restored session
// continues bit-identically: feed it the arrivals the original would have
// been fed next, if any, and Finish it. A legacy file written by the
// retired sim-time checkpoint timer, which carries no StreamState, becomes
// a session fed its whole workload; its checkpoint timer events are
// dropped.
func RestoreStream(cfg Config, p Policy, snap *Snapshot) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if snap == nil {
		return nil, cfgerr.New("sim", "checkpoint", "sim: nil snapshot")
	}
	if err := snap.validate(); err != nil {
		return nil, err
	}
	if snap.Policy != p.Name() {
		return nil, cfgerr.New("sim", "checkpoint", "sim: snapshot was taken under policy %q, resuming with %q", snap.Policy, p.Name())
	}
	if want := FingerprintConfig(&cfg, p.Name()); snap.Fingerprint != want {
		return nil, cfgerr.New("sim", "checkpoint", "sim: snapshot fingerprint %#x does not match configuration %#x — restore needs the exact creation config of the original session", snap.Fingerprint, want)
	}
	ss := snap.Stream
	if ss == nil {
		// The legacy file lists every job of the workload, departed ones
		// included, with nothing folded yet and no more arrivals to come.
		ss = &StreamState{AdvancedTo: snap.Now, Fed: len(snap.Jobs), Started: true, BaseWindows: len(cfg.BudgetFaults), OpenFrac: 1}
	}
	if ss.BaseWindows != len(cfg.BudgetFaults) {
		return nil, cfgerr.New("sim", "checkpoint", "sim: snapshot expects %d base budget windows, config has %d", ss.BaseWindows, len(cfg.BudgetFaults))
	}
	if err := ss.validate(snap.Now); err != nil {
		return nil, err
	}
	full := cfg
	full.BudgetFaults = append(append([]BudgetFault(nil), cfg.BudgetFaults...), ss.Appended...)
	e, err := restoreEngine(full, p, snap)
	if err != nil {
		return nil, err
	}
	e.moreArrivals = ss.MoreArrivals
	e.fold = resultFold{
		arrived:    ss.Fold.Arrived,
		quality:    ss.Fold.Quality,
		maxQuality: ss.Fold.MaxQuality,
		completed:  ss.Fold.Completed,
		deadlined:  ss.Fold.Deadlined,
		discarded:  ss.Fold.Discarded,
		abandoned:  ss.Fold.Abandoned,
		classed:    ss.Fold.Classed,
	}
	if len(ss.Fold.Classes) > 0 {
		e.fold.byClass = make(map[string]*ClassResult, len(ss.Fold.Classes))
		for i := range ss.Fold.Classes {
			cr := ss.Fold.Classes[i]
			e.fold.byClass[cr.Class] = &cr
		}
	}
	if len(ss.Fold.Jobs) > 0 {
		e.fold.jobs = append([]JobOutcome(nil), ss.Fold.Jobs...)
	}
	st := &Stream{
		e:           e,
		started:     ss.Started,
		drained:     ss.Drained,
		advancedTo:  ss.AdvancedTo,
		fed:         ss.Fed,
		baseWindows: ss.BaseWindows,
		openFrac:    ss.OpenFrac,
		baseFP:      snap.Fingerprint,
	}
	st.validator.Restore(ss.Validator)
	return st, nil
}

// validate checks the session state against what Snapshot and
// ExtendBudget can produce: the session sits at the checkpoint instant, an
// open budget window is the last appended one, and every appended window
// and fold figure is well formed.
func (ss *StreamState) validate(now float64) error {
	bad := func(reason string, args ...any) error {
		return cfgerr.New("sim", "checkpoint", "sim: invalid stream snapshot: "+reason, args...)
	}
	if ss.AdvancedTo != now {
		return bad("session advanced to %g, snapshot taken at %g", ss.AdvancedTo, now)
	}
	if ss.Fed < 0 {
		return bad("%d jobs fed", ss.Fed)
	}
	for _, w := range ss.Appended {
		if math.IsNaN(w.Fraction) || math.IsInf(w.End, 0) || w.Validate() != nil {
			return bad("budget window [%g, %g] at fraction %g invalid", w.Start, w.End, w.Fraction)
		}
	}
	if !(ss.OpenFrac >= 0 && ss.OpenFrac <= 1) {
		return bad("open budget fraction %g outside [0, 1]", ss.OpenFrac)
	}
	if ss.OpenFrac != 1 && (len(ss.Appended) == 0 || ss.Appended[len(ss.Appended)-1].Fraction != ss.OpenFrac) {
		return bad("budget window at fraction %g held open, but the last appended window differs", ss.OpenFrac)
	}
	f := ss.Fold
	if math.IsNaN(f.Quality) || math.IsInf(f.Quality, 0) || math.IsNaN(f.MaxQuality) || math.IsInf(f.MaxQuality, 0) ||
		f.Arrived < 0 || f.Completed < 0 || f.Deadlined < 0 || f.Discarded < 0 || f.Abandoned < 0 {
		return bad("result fold invalid")
	}
	return nil
}
