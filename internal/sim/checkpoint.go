// Checkpoint/resume: crash recovery for long simulation runs. Between two
// Advance calls a session (Stream.Snapshot) serializes its complete engine
// state — the jobs not yet folded into the result, cores, every pending
// event with its sequence number and the queue's sequence counter, every
// counter, and (for stateful policies) the policy's own cursor — into a
// versioned Snapshot. RestoreStream rebuilds the session; finishing it
// gives a result bit-identical (Float64bits) to the uninterrupted run's.
//
// Two properties make byte-identity possible:
//
//   - Snapshots are taken between Advance calls, outside the event loop:
//     taking one processes no event, settles no core and skips the power
//     audit, so a checkpointed run is indistinguishable from an unchecked
//     one.
//   - Every pending event is serialized with its insertion sequence number:
//     the heap's items in heap-array order, then the segment ends each
//     core's timer stands for and the arrival and deadline events of the
//     jobs not yet arrived, which the engine keeps outside the heap.
//     Restoring splits them the same way, so the engine pops in the exact
//     same order, including FIFO tie-breaks among equal-time events.
//
// Snapshots carry a fingerprint of the configuration and policy (FNV-1a
// over every scalar, fault window, queue order, class priority,
// admission/retry setting, and probe evaluations of the quality function);
// RestoreStream refuses a snapshot whose fingerprint does not match the
// offered configuration, so state is never silently replayed under
// different physics.
package sim

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"

	"dessched/internal/cfgerr"
	"dessched/internal/eventq"
	"dessched/internal/hashing"
	"dessched/internal/job"
	"dessched/internal/yds"
)

// SnapshotVersion is the format tag of serialized snapshots. Decoding
// rejects any other value.
const SnapshotVersion = "dessched-checkpoint/v1"

// legacyCheckpointKind is the event kind the retired sim-time checkpoint
// timer wrote into its snapshots' event lists. Restore drops such events.
const legacyCheckpointKind = 6

// StatefulPolicy is the optional interface of policies that carry semantic
// state across invocations (e.g. DES's cumulative round-robin cursor).
// Checkpointing saves the state blob into the snapshot; RestoreStream loads
// it back before the run continues. Policies whose cross-invocation state is
// a pure cache (recomputable memo tables, scratch buffers) need not
// implement it.
type StatefulPolicy interface {
	Policy
	SavePolicyState() ([]byte, error)
	LoadPolicyState([]byte) error
}

// Snapshot is the complete serializable state of a paused simulation.
type Snapshot struct {
	Version      string  `json:"version"`
	Fingerprint  uint64  `json:"fingerprint"`
	Policy       string  `json:"policy"`
	Now          float64 `json:"now"` // checkpoint instant
	FirstRelease float64 `json:"first_release"`

	Jobs  []jobSnap  `json:"jobs"`  // jobs not yet folded, arrival-push order (departed included)
	Queue []int      `json:"queue"` // waiting queue as indices into Jobs
	Cores []coreSnap `json:"cores"`

	Events   []eventSnap `json:"events"`    // heap-array order, not sorted
	EventSeq uint64      `json:"event_seq"` // insertion-sequence counter

	Counters counterSnap `json:"counters"`

	// PolicyState is the opaque blob of a StatefulPolicy, absent otherwise.
	PolicyState json.RawMessage `json:"policy_state,omitempty"`

	// Stream carries the session state (Stream.Snapshot); absent only in
	// legacy files of the retired checkpoint timer. See stream_snapshot.go.
	Stream *StreamState `json:"stream,omitempty"`
}

type jobSnap struct {
	ID       job.ID  `json:"id"`
	Release  float64 `json:"release"`
	Deadline float64 `json:"deadline"`
	Demand   float64 `json:"demand"`
	Partial  bool    `json:"partial,omitempty"`
	Class    string  `json:"class,omitempty"`

	Done     float64 `json:"done,omitempty"`
	Core     int     `json:"core"`
	Reason   int     `json:"reason,omitempty"`
	DepartAt float64 `json:"depart_at,omitempty"`
	Quality  float64 `json:"quality,omitempty"`
	Phase    int     `json:"phase,omitempty"`
	Attempts int     `json:"attempts,omitempty"`
}

type segSnap struct {
	ID    job.ID  `json:"id"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	Speed float64 `json:"speed"`
}

type coreSnap struct {
	Plan        []segSnap `json:"plan,omitempty"`
	PlanVersion int       `json:"plan_version"`
	PlanCursor  int       `json:"plan_cursor"`
	SettledTo   float64   `json:"settled_to"`
	BusyTime    float64   `json:"busy_time"`
	Energy      float64   `json:"energy"`
	Jobs        []int     `json:"jobs,omitempty"` // indices into Snapshot.Jobs
}

type eventSnap struct {
	T       float64 `json:"t"`
	Seq     uint64  `json:"seq"`
	Kind    uint8   `json:"kind"`
	Version int     `json:"version,omitempty"` // a segment end's plan version (coreSnap.PlanVersion when live)
	Job     int     `json:"job"`               // index into Snapshot.Jobs, -1 when absent
	Core    int     `json:"core"`              // core index, -1 when absent
}

type counterSnap struct {
	Undeparted       int     `json:"undeparted"`
	PendingArrivals  int     `json:"pending_arrivals"`
	LastDeparture    float64 `json:"last_departure"`
	Invocations      int     `json:"invocations"`
	PeakPower        float64 `json:"peak_power"`
	BudgetViolations int     `json:"budget_violations"`
	SkippedTime      float64 `json:"skipped_time"`
	Shed             int     `json:"shed"`
	Requeued         int     `json:"requeued"`
	Retried          int     `json:"retried"`
	RetryQuality     float64 `json:"retry_quality"`
	QuantumLive      bool    `json:"quantum_live"`
	EventsProcessed  int     `json:"events_processed"`
}

// snapshot serializes the engine at time now into a detached Snapshot;
// Stream.Snapshot adds the fingerprint and the session state.
func (e *engine) snapshot(now float64) *Snapshot {
	jobIdx := make(map[*JobState]int, len(e.all))
	snap := &Snapshot{
		Version:      SnapshotVersion,
		Policy:       e.policy.Name(),
		Now:          now,
		FirstRelease: e.firstRelease,
		Counters: counterSnap{
			Undeparted:       e.undeparted,
			PendingArrivals:  e.pendingArrivals(),
			LastDeparture:    e.lastDeparture,
			Invocations:      e.invocations,
			PeakPower:        e.peakPower,
			BudgetViolations: e.budgetViolations,
			SkippedTime:      e.skippedTime,
			Shed:             e.shed,
			Requeued:         e.requeued,
			Retried:          e.retried,
			RetryQuality:     e.retryQuality,
			QuantumLive:      e.quantumLive,
			EventsProcessed:  e.eventsProcessed,
		},
	}
	snap.Jobs = make([]jobSnap, len(e.all))
	for i, js := range e.all {
		jobIdx[js] = i
		snap.Jobs[i] = jobSnap{
			ID:       js.Job.ID,
			Release:  js.Job.Release,
			Deadline: js.Job.Deadline,
			Demand:   js.Job.Demand,
			Partial:  js.Job.Partial,
			Class:    js.Job.Class,
			Done:     js.Done,
			Core:     js.Core,
			Reason:   int(js.Reason),
			DepartAt: js.DepartAt,
			Quality:  js.Quality,
			Phase:    int(js.Phase),
			Attempts: js.Attempts,
		}
	}
	snap.Queue = make([]int, len(e.queue))
	for i, js := range e.queue {
		snap.Queue[i] = jobIdx[js]
	}
	snap.Cores = make([]coreSnap, len(e.cores))
	for i, c := range e.cores {
		cs := coreSnap{
			PlanVersion: c.planVersion,
			PlanCursor:  c.planCursor,
			SettledTo:   c.settledTo,
			BusyTime:    c.busyTime,
			Energy:      c.energy,
		}
		for _, seg := range c.plan {
			cs.Plan = append(cs.Plan, segSnap{ID: seg.ID, Start: seg.Start, End: seg.End, Speed: seg.Speed})
		}
		for _, js := range c.Jobs {
			cs.Jobs = append(cs.Jobs, jobIdx[js])
		}
		snap.Cores[i] = cs
	}
	items, seq := e.events.Snapshot()
	pending := e.arrivals[e.nextArrival:]
	snap.EventSeq = seq
	snap.Events = make([]eventSnap, 0, len(items)+2*len(pending))
	for _, it := range items {
		es := eventSnap{T: it.Time, Seq: it.Seq(), Kind: uint8(it.Payload.kind), Job: -1, Core: -1}
		if it.Payload.js != nil {
			es.Job = jobIdx[it.Payload.js]
		}
		if it.Payload.core != nil {
			es.Core = it.Payload.core.Index
		}
		snap.Events = append(snap.Events, es)
	}
	// A core's timer holds only its next segment end (see armPlan). The
	// snapshot lists the end of every segment from that one on, under its
	// reserved number and tagged with the plan version, as the events they
	// stand for.
	for _, c := range e.cores {
		for k := c.segNext; k < len(c.plan); k++ {
			snap.Events = append(snap.Events, eventSnap{T: c.plan[k].End, Seq: c.segSeq + uint64(k),
				Kind: uint8(evkSegment), Version: c.planVersion, Job: -1, Core: c.Index})
		}
	}
	// A job that has not arrived keeps its arrival and deadline events out
	// of the heap (see engine.arrivals). The snapshot lists both as the
	// events they stand for, so the format does not depend on that split.
	for _, a := range pending {
		ji := jobIdx[a.js]
		snap.Events = append(snap.Events,
			eventSnap{T: a.js.Job.Release, Seq: a.seq, Kind: uint8(evkArrival), Job: ji, Core: -1},
			eventSnap{T: a.js.Job.Deadline, Seq: a.seq + 1, Kind: uint8(evkDeadline), Job: ji, Core: -1})
	}
	if sp, ok := e.policy.(StatefulPolicy); ok {
		if blob, err := sp.SavePolicyState(); err == nil && len(blob) > 0 {
			snap.PolicyState = json.RawMessage(blob)
		}
	}
	return snap
}

// EncodeSnapshot serializes a snapshot to its on-disk JSON form.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, cfgerr.New("sim", "checkpoint", "sim: encoding snapshot: %v", err)
	}
	return b, nil
}

// DecodeSnapshot parses and structurally validates a serialized snapshot.
// Corrupt or truncated input yields a typed *cfgerr.Error — never a panic —
// so callers can surface decode failures cleanly.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, cfgerr.New("sim", "checkpoint", "sim: decoding snapshot: %v", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// validate checks the snapshot's internal consistency: version tag, index
// ranges, counter sanity, and the invariants the engine keeps between
// events — a snapshot is input from outside the program, and state the
// engine could never have written (an in-flight job without its deadline
// event, a deadline event off its job's deadline, negative progress, an
// event before the checkpoint instant) would otherwise surface later as a
// panic or a run that never ends. It does not need (and cannot check) the
// configuration — RestoreStream does that via the fingerprint.
func (s *Snapshot) validate() error {
	bad := func(reason string, args ...any) error {
		return cfgerr.New("sim", "checkpoint", "sim: invalid snapshot: "+reason, args...)
	}
	finite := func(vs ...float64) bool {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if s.Version != SnapshotVersion {
		return bad("version %q, want %q", s.Version, SnapshotVersion)
	}
	if len(s.Cores) == 0 {
		return bad("no cores")
	}
	if !finite(s.Now, s.FirstRelease) {
		return bad("non-finite checkpoint time %g or first release %g", s.Now, s.FirstRelease)
	}
	n := len(s.Jobs)
	undeparted := 0
	for i, j := range s.Jobs {
		if j.Core < -1 || j.Core >= len(s.Cores) {
			return bad("job %d on core %d of %d", i, j.Core, len(s.Cores))
		}
		if j.Phase < int(PhasePending) || j.Phase > int(PhaseDeparted) {
			return bad("job %d phase %d out of range", i, j.Phase)
		}
		if j.Reason < int(NotDeparted) || j.Reason > int(Abandoned) {
			return bad("job %d reason %d out of range", i, j.Reason)
		}
		if (j.Phase == int(PhaseDeparted)) != (j.Reason != int(NotDeparted)) {
			return bad("job %d phase %d disagrees with departure reason %d", i, j.Phase, j.Reason)
		}
		jj := job.Job{ID: j.ID, Release: j.Release, Deadline: j.Deadline, Demand: j.Demand}
		if err := jj.Validate(); err != nil || !finite(j.Release, j.Deadline) {
			return bad("job %d window [%g, %g] or demand %g invalid", i, j.Release, j.Deadline, j.Demand)
		}
		if !finite(j.Done, j.DepartAt, j.Quality) || j.Done < 0 || j.Attempts < 0 {
			return bad("job %d progress %g, departure %g, quality %g, or attempts %d invalid", i, j.Done, j.DepartAt, j.Quality, j.Attempts)
		}
		if j.Reason == int(NotDeparted) {
			undeparted++
			if j.Deadline < s.Now {
				return bad("job %d still in flight at %g past its deadline %g", i, s.Now, j.Deadline)
			}
		}
	}
	// In-flight jobs carry distinct IDs (plans name jobs by ID), each sits
	// in the queue or on the core its Core field names at most once, and
	// every dispatched one is listed on its core.
	inFlight := make(map[job.ID]bool, undeparted)
	placed := make([]bool, n)
	dispatched := 0
	for _, j := range s.Jobs {
		if j.Reason != int(NotDeparted) {
			continue
		}
		if inFlight[j.ID] {
			return bad("two in-flight jobs share ID %d", j.ID)
		}
		inFlight[j.ID] = true
		if j.Core >= 0 {
			dispatched++
		}
	}
	place := func(ji, core int, where string) error {
		if ji < 0 || ji >= n {
			return bad("%s index %d of %d jobs", where, ji, n)
		}
		if placed[ji] || s.Jobs[ji].Reason != int(NotDeparted) || s.Jobs[ji].Core != core {
			return bad("%s lists job %d, which is departed, listed twice, or on core %d", where, ji, s.Jobs[ji].Core)
		}
		placed[ji] = true
		return nil
	}
	for _, qi := range s.Queue {
		if err := place(qi, -1, "queue"); err != nil {
			return err
		}
	}
	listed := 0
	for ci, c := range s.Cores {
		for _, ji := range c.Jobs {
			if err := place(ji, ci, fmt.Sprintf("core %d", ci)); err != nil {
				return err
			}
			listed++
		}
	}
	if listed != dispatched {
		return bad("%d in-flight jobs name a core, but the cores list %d", dispatched, listed)
	}
	for ci, c := range s.Cores {
		if c.PlanCursor < 0 || c.PlanCursor > len(c.Plan) {
			return bad("core %d plan cursor %d of %d segments", ci, c.PlanCursor, len(c.Plan))
		}
		if !finite(c.SettledTo, c.BusyTime, c.Energy) || c.PlanVersion < 0 {
			return bad("core %d accounting invalid", ci)
		}
		for _, seg := range c.Plan {
			if !finite(seg.Start, seg.End, seg.Speed) || seg.End < seg.Start || seg.Speed < 0 {
				return bad("core %d plan segment [%g, %g] at speed %g invalid", ci, seg.Start, seg.End, seg.Speed)
			}
		}
	}
	// Events the engine still has to process lie at or after the
	// checkpoint instant; only a drained streamed session keeps earlier
	// ones, and it never pops them. Every in-flight job owns one deadline
	// event at exactly its deadline.
	drained := s.Stream != nil && s.Stream.Drained
	hasDeadline := make([]bool, n)
	for i, ev := range s.Events {
		if ev.Kind > legacyCheckpointKind {
			return bad("event %d kind %d unknown", i, ev.Kind)
		}
		if ev.Job < -1 || ev.Job >= n {
			return bad("event %d job index %d of %d jobs", i, ev.Job, n)
		}
		if ev.Core < -1 || ev.Core >= len(s.Cores) {
			return bad("event %d core index %d of %d cores", i, ev.Core, len(s.Cores))
		}
		if !finite(ev.T) || (ev.T < s.Now && !drained) {
			return bad("event %d at %g, before the checkpoint instant %g or not finite", i, ev.T, s.Now)
		}
		k := evKind(ev.Kind)
		if (k == evkArrival || k == evkDeadline || k == evkRetry) && ev.Job < 0 {
			return bad("event %d kind %s without a job", i, eventKindName(k))
		}
		if k == evkSegment && ev.Core < 0 {
			return bad("event %d segment without a core", i)
		}
		if k == evkDeadline {
			if ev.T != s.Jobs[ev.Job].Deadline {
				return bad("event %d: deadline event at %g, job %d's deadline is %g", i, ev.T, ev.Job, s.Jobs[ev.Job].Deadline)
			}
			hasDeadline[ev.Job] = true
		}
	}
	for i, j := range s.Jobs {
		if j.Reason == int(NotDeparted) && !hasDeadline[i] {
			return bad("job %d is in flight without a deadline event", i)
		}
	}
	if s.Counters.Undeparted != undeparted {
		return bad("undeparted counter %d, but %d jobs are in flight", s.Counters.Undeparted, undeparted)
	}
	if s.Counters.PendingArrivals < 0 || s.Counters.PendingArrivals > n {
		return bad("pending arrivals %d of %d jobs", s.Counters.PendingArrivals, n)
	}
	return nil
}

func eventKindName(k evKind) string {
	switch k {
	case evkArrival:
		return "arrival"
	case evkDeadline:
		return "deadline"
	case evkSegment:
		return "segment"
	case evkQuantum:
		return "quantum"
	case evkFaultEdge:
		return "fault-edge"
	case evkRetry:
		return "retry"
	default:
		return "unknown"
	}
}

// restoreEngine rebuilds an engine from a snapshot without driving it — the
// structural core of RestoreStream. The caller has already validated the
// configuration, snapshot, policy name, and fingerprint.
func restoreEngine(cfg Config, p Policy, snap *Snapshot) (*engine, error) {
	if len(snap.Cores) != cfg.Cores {
		return nil, cfgerr.New("sim", "checkpoint", "sim: snapshot has %d cores, config %d", len(snap.Cores), cfg.Cores)
	}

	e := newEngine(cfg, p)
	e.all = make([]*JobState, len(snap.Jobs))
	for i, j := range snap.Jobs {
		e.all[i] = &JobState{
			Job:      job.Job{ID: j.ID, Release: j.Release, Deadline: j.Deadline, Demand: j.Demand, Partial: j.Partial, Class: j.Class},
			Done:     j.Done,
			Core:     j.Core,
			Reason:   DepartReason(j.Reason),
			DepartAt: j.DepartAt,
			Quality:  j.Quality,
			Phase:    Phase(j.Phase),
			Attempts: j.Attempts,
		}
	}
	e.queue = make([]*JobState, len(snap.Queue))
	for i, qi := range snap.Queue {
		e.queue[i] = e.all[qi]
	}
	e.state.queue = e.queue
	for ci, cs := range snap.Cores {
		c := e.cores[ci]
		c.planVersion = cs.PlanVersion
		c.planCursor = cs.PlanCursor
		c.settledTo = cs.SettledTo
		c.busyTime = cs.BusyTime
		c.energy = cs.Energy
		if len(cs.Plan) > 0 {
			c.plan = make([]yds.Segment, len(cs.Plan))
			for i, seg := range cs.Plan {
				c.plan[i] = yds.Segment{ID: seg.ID, Start: seg.Start, End: seg.End, Speed: seg.Speed}
			}
		}
		if len(cs.Jobs) > 0 {
			c.Jobs = make([]*JobState, len(cs.Jobs))
			for i, ji := range cs.Jobs {
				c.Jobs[i] = e.all[ji]
			}
		}
	}
	if err := e.restoreEvents(snap); err != nil {
		return nil, err
	}

	c := snap.Counters
	e.undeparted = c.Undeparted
	e.lastDeparture = c.LastDeparture
	e.invocations = c.Invocations
	e.peakPower = c.PeakPower
	e.budgetViolations = c.BudgetViolations
	e.skippedTime = c.SkippedTime
	e.shed = c.Shed
	e.requeued = c.Requeued
	e.retried = c.Retried
	e.retryQuality = c.RetryQuality
	e.quantumLive = c.QuantumLive
	e.eventsProcessed = c.EventsProcessed
	e.firstRelease = snap.FirstRelease

	if sp, ok := p.(StatefulPolicy); ok && len(snap.PolicyState) > 0 {
		if err := sp.LoadPolicyState(snap.PolicyState); err != nil {
			return nil, cfgerr.New("sim", "checkpoint", "sim: restoring policy state: %v", err)
		}
	}
	return e, nil
}

// restoreEvents rebuilds the engine's event set from a snapshot's event
// list. Arrival events, and the deadline events of the jobs they belong
// to, go back to the arrival list; segment events re-arm their cores'
// timers (restoreTimer); legacy checkpoint timer events are dropped;
// everything else goes into the heap. Every pending arrival must come with
// its deadline event under the next sequence number, as the engine always
// writes them.
func (e *engine) restoreEvents(snap *Snapshot) error {
	bad := func(reason string, args ...any) error {
		return cfgerr.New("sim", "checkpoint", "sim: invalid snapshot: "+reason, args...)
	}
	arrival := make(map[int]uint64) // job index → arrival seq
	for _, es := range snap.Events {
		if evKind(es.Kind) != evkArrival {
			continue
		}
		if _, dup := arrival[es.Job]; dup {
			return bad("job %d has two arrival events", es.Job)
		}
		if es.T != snap.Jobs[es.Job].Release {
			return bad("job %d arrives at %g, not at its release %g", es.Job, es.T, snap.Jobs[es.Job].Release)
		}
		arrival[es.Job] = es.Seq
		e.arrivals = append(e.arrivals, pendingArrival{js: e.all[es.Job], seq: es.Seq})
	}
	if len(e.arrivals) != snap.Counters.PendingArrivals {
		return bad("%d arrival events for %d pending arrivals", len(e.arrivals), snap.Counters.PendingArrivals)
	}
	slices.SortFunc(e.arrivals, arrivalOrder)

	deadline := make(map[int]bool, len(arrival))  // pending jobs whose deadline was seen
	segments := make([][]eventSnap, len(e.cores)) // live segment events per core
	items := make([]eventq.Item[simEvent], 0, len(snap.Events))
	for _, es := range snap.Events {
		k := evKind(es.Kind)
		if k == evkArrival || es.Kind == legacyCheckpointKind {
			continue
		}
		if k == evkSegment {
			// An event of an older plan version is a replaced plan's
			// segment end, which the engine that wrote legacy files kept
			// in its heap until it popped and did nothing.
			if es.Version == snap.Cores[es.Core].PlanVersion {
				segments[es.Core] = append(segments[es.Core], es)
			}
			continue
		}
		if seq, pending := arrival[es.Job]; pending && k == evkDeadline {
			if deadline[es.Job] || es.Seq != seq+1 || es.T != snap.Jobs[es.Job].Deadline {
				return bad("job %d: deadline event does not match its pending arrival", es.Job)
			}
			deadline[es.Job] = true
			continue
		}
		ev := simEvent{kind: k}
		if es.Job >= 0 {
			ev.js = e.all[es.Job]
		}
		if es.Core >= 0 {
			ev.core = e.cores[es.Core]
		}
		items = append(items, eventq.MakeItem(es.T, es.Seq, ev))
	}
	if len(deadline) != len(arrival) {
		return bad("%d pending arrivals without a deadline event", len(arrival)-len(deadline))
	}
	for ci, evs := range segments {
		if err := e.restoreTimer(e.cores[ci], evs); err != nil {
			return err
		}
	}
	e.events.Restore(items, snap.EventSeq)
	return nil
}

// restoreTimer re-arms a restored core's segment timer from the core's
// live segment events: they must be the ends of its plan's last segments,
// under consecutive sequence numbers — what the engine writes.
func (e *engine) restoreTimer(c *CoreState, evs []eventSnap) error {
	bad := func(reason string, args ...any) error {
		return cfgerr.New("sim", "checkpoint", "sim: invalid snapshot: core %d: "+reason, append([]any{c.Index}, args...)...)
	}
	if len(evs) > len(c.plan) {
		return bad("%d segment events, but %d plan segments", len(evs), len(c.plan))
	}
	slices.SortFunc(evs, func(a, b eventSnap) int { return cmp.Compare(a.Seq, b.Seq) })
	c.segNext = len(c.plan) - len(evs)
	for j, es := range evs {
		if es.Seq != evs[0].Seq+uint64(j) {
			return bad("segment event sequence numbers %d and %d are not consecutive", evs[j-1].Seq, es.Seq)
		}
		if end := c.plan[c.segNext+j].End; es.T != end {
			return bad("segment event at %g, but plan segment %d ends at %g", es.T, c.segNext+j, end)
		}
	}
	if len(evs) > 0 {
		c.segSeq = evs[0].Seq - uint64(c.segNext)
	}
	e.armSegment(c)
	return nil
}

// FingerprintConfig is the configuration fingerprint snapshots carry and
// RestoreStream checks, under the policy instance's name: an FNV-1a hash
// of every configuration field that affects simulation outcomes. Equal
// fingerprints mean "same experiment" for resume and for the run ledger.
// Interfaces (quality functions) cannot be hashed structurally, so they
// contribute their name plus probe evaluations at fixed sample points —
// two functions that agree on name and probes are overwhelmingly likely to
// be the same function.
func FingerprintConfig(cfg *Config, policy string) uint64 {
	f := hashing.New()
	f.Str(policy)
	f.Int(cfg.Cores)
	f.F64(cfg.Budget)
	f.F64(cfg.Power.A)
	f.F64(cfg.Power.Beta)
	f.F64(cfg.Power.B)
	f.Int(len(cfg.Ladder))
	for _, s := range cfg.Ladder {
		f.F64(s)
	}
	if cfg.Quality != nil {
		f.Str(cfg.Quality.Name())
		for _, x := range [...]float64{1, 10, 100, 500, 1000} {
			f.F64(cfg.Quality.Eval(x))
		}
	}
	// Class-quality overrides are hashed only when present, keeping
	// fingerprints of legacy class-free configurations unchanged.
	if len(cfg.ClassQuality) > 0 {
		names := make([]string, 0, len(cfg.ClassQuality))
		for name := range cfg.ClassQuality {
			names = append(names, name)
		}
		sort.Strings(names)
		f.Int(len(names))
		for _, name := range names {
			q := cfg.ClassQuality[name]
			f.Str(name)
			f.Str(q.Name())
			for _, x := range [...]float64{1, 10, 100, 500, 1000} {
				f.F64(q.Eval(x))
			}
		}
	}
	// So are the queue order and the class priorities: FCFS runs without
	// tiers keep their fingerprints.
	if cfg.QueueOrder != OrderFCFS {
		f.Int(int(cfg.QueueOrder))
	}
	if len(cfg.ClassPriority) > 0 {
		names := make([]string, 0, len(cfg.ClassPriority))
		for name := range cfg.ClassPriority {
			names = append(names, name)
		}
		sort.Strings(names)
		f.Int(len(names))
		for _, name := range names {
			f.Str(name)
			f.Int(cfg.ClassPriority[name])
		}
	}
	f.F64(cfg.Triggers.Quantum)
	f.Int(cfg.Triggers.Counter)
	f.Bool(cfg.Triggers.IdleCore)
	f.Bool(cfg.Triggers.OnArrival)
	f.F64(cfg.IdleBurnSpeed)
	f.F64(cfg.MaxSpeed)
	f.Bool(cfg.TwoSpeedDiscrete)
	f.Int(len(cfg.Faults))
	for _, fl := range cfg.Faults {
		f.Int(fl.Core)
		f.F64(fl.Start)
		f.F64(fl.End)
		f.F64(fl.SpeedFactor)
	}
	f.Int(len(cfg.BudgetFaults))
	for _, fl := range cfg.BudgetFaults {
		f.F64(fl.Start)
		f.F64(fl.End)
		f.F64(fl.Fraction)
	}
	// A disabled admission stage ignores its queue bound, so the bound
	// counts as 0 there: Policy none hashes like the zero Admission.
	maxQueue := 0
	if cfg.Admission.Enabled() {
		maxQueue = cfg.Admission.MaxQueue
	}
	f.Int(int(cfg.Admission.Policy))
	f.Int(maxQueue)
	f.Int(cfg.Retry.MaxAttempts)
	f.F64(cfg.Retry.Backoff)
	f.F64(cfg.Retry.Multiplier)
	f.F64(cfg.Retry.MaxBackoff)
	f.F64(cfg.Retry.DeadlineSlack)
	return f.Sum()
}
