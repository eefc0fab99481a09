package sim_test

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"dessched/internal/admission"
	"dessched/internal/baseline"
	"dessched/internal/cfgerr"
	"dessched/internal/core"
	"dessched/internal/job"
	"dessched/internal/power"
	"dessched/internal/sim"
	"dessched/internal/trace"
	"dessched/internal/workload"
)

// digest is an FNV-1a accumulator over everything observable about a run:
// every Result field (floats by their bits), per-class rows, per-job
// outcomes, the observer stream and the executed-slice trace.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= v & 0xff
		d.h *= 1099511628211
		v >>= 8
	}
}

func (d *digest) f(v float64) { d.u64(math.Float64bits(v)) }
func (d *digest) i(v int)     { d.u64(uint64(int64(v))) }

func (d *digest) s(v string) {
	for i := 0; i < len(v); i++ {
		d.h ^= uint64(v[i])
		d.h *= 1099511628211
	}
	d.i(len(v))
}

func (d *digest) result(r sim.Result) {
	d.s(r.Policy)
	for _, v := range []float64{r.Quality, r.MaxQuality, r.NormQuality, r.Energy, r.IdleEnergy,
		r.PeakPower, r.RetryQuality, r.Span, r.SkippedTime} {
		d.f(v)
	}
	for _, v := range []int{r.BudgetViolations, r.Arrived, r.Completed, r.Deadlined, r.Discarded,
		r.Shed, r.Requeued, r.Retried, r.Abandoned, r.Invocation, r.Events} {
		d.i(v)
	}
	for _, c := range r.Classes {
		d.s(c.Class)
		d.f(c.Quality)
		d.f(c.MaxQuality)
		d.f(c.NormQuality)
		for _, v := range []int{c.Arrived, c.Completed, c.Deadlined, c.Discarded, c.Shed, c.Abandoned} {
			d.i(v)
		}
	}
	for _, o := range r.Jobs {
		d.i(int(o.ID))
		for _, v := range []float64{o.Release, o.Deadline, o.Demand, o.Done, o.Quality, o.DepartAt} {
			d.f(v)
		}
		d.i(int(o.Reason))
		d.i(o.Core)
		d.s(o.Class)
	}
}

// observed wires an observer and a trace recorder into cfg and returns a
// function folding what they saw into a digest.
func observed(cfg *sim.Config) func(*digest) {
	var events []sim.Event
	cfg.Observer = func(e sim.Event) { events = append(events, e) }
	tr := trace.New(cfg.Cores)
	cfg.Recorder = tr
	cfg.CollectJobs = true
	return func(d *digest) {
		for _, e := range events {
			d.f(e.Time)
			d.i(int(e.Kind))
			d.i(int(e.Job))
			d.i(e.Core)
			d.i(e.Queue)
			d.f(e.Quality)
			d.s(e.Class)
		}
		for _, en := range tr.Entries {
			d.i(en.Core)
			d.i(int(en.JobID))
			d.f(en.Start)
			d.f(en.End)
			d.f(en.Speed)
		}
	}
}

func goldenJobs(t testing.TB, rate, duration float64, seed uint64) []job.Job {
	t.Helper()
	wl := workload.DefaultConfig(rate)
	wl.Duration = duration
	wl.Seed = seed
	jobs, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// engineGolden is one pinned engine scenario: a configuration, a policy and
// a job slice driven through sim.Run.
type engineGolden struct {
	name   string
	cfg    func() sim.Config
	arch   core.Arch
	policy func() sim.Policy
	jobs   func(t *testing.T) []job.Job
}

func engineGoldens() []engineGolden {
	paper := func() sim.Config { return sim.PaperConfig() }
	small := func() sim.Config { c := sim.PaperConfig(); c.Cores = 4; c.Budget = 60; return c }
	des := func(a core.Arch) func() sim.Policy { return func() sim.Policy { return core.New(a) } }
	jobs := func(rate, duration float64, seed uint64) func(t *testing.T) []job.Job {
		return func(t *testing.T) []job.Job { return goldenJobs(t, rate, duration, seed) }
	}
	return []engineGolden{
		{name: "paper-light", cfg: paper, arch: core.CDVFS, policy: des(core.CDVFS), jobs: jobs(60, 20, 1)},
		{name: "paper-heavy", cfg: paper, arch: core.CDVFS, policy: des(core.CDVFS), jobs: jobs(200, 8, 2)},
		{name: "chaotic", cfg: chaoticConfig, arch: core.CDVFS, policy: des(core.CDVFS), jobs: jobs(200, 2, 11)},
		{name: "retry-outage", cfg: func() sim.Config {
			c := chaoticConfig()
			c.Retry = sim.RetryPolicy{MaxAttempts: 2, Backoff: 0.01, Multiplier: 2, MaxBackoff: 0.05}
			return c
		}, arch: core.CDVFS, policy: des(core.CDVFS), jobs: jobs(150, 3, 5)},
		{name: "sdvfs-discrete", cfg: func() sim.Config { c := small(); c.Ladder = power.DefaultLadder; return c },
			arch: core.SDVFS, policy: des(core.SDVFS), jobs: jobs(120, 4, 3)},
		{name: "nodvfs-idle-burn", cfg: small, arch: core.NoDVFS, policy: des(core.NoDVFS), jobs: jobs(120, 4, 4)},
		// Idle burn cannot follow a budget drop, so every event inside the
		// budget fault is an audited violation.
		{name: "nodvfs-budget-fault", cfg: func() sim.Config {
			c := small()
			c.BudgetFaults = []sim.BudgetFault{{Start: 1, End: 2.5, Fraction: 0.5}}
			return c
		}, arch: core.NoDVFS, policy: des(core.NoDVFS), jobs: jobs(120, 4, 4)},
		{name: "fcfs-wf", cfg: small, arch: core.CDVFS,
			policy: func() sim.Policy { return baseline.New(baseline.FCFS, true) }, jobs: jobs(120, 4, 6)},
		{name: "immediate-triggers", cfg: func() sim.Config {
			c := small()
			c.Triggers = sim.Triggers{OnArrival: true}
			return c
		}, arch: core.CDVFS, policy: des(core.CDVFS), jobs: jobs(100, 3, 7)},
		{name: "classed-prio-admission", cfg: func() sim.Config {
			c := small()
			c.QueueOrder = sim.OrderPrioSJF
			c.ClassPriority = map[string]int{"gold": 1}
			c.Admission = admission.Config{Policy: admission.Priority, MaxQueue: 4}
			c.BudgetFaults = []sim.BudgetFault{{Start: 1, End: 2, Fraction: 0.5}}
			return c
		}, arch: core.CDVFS, policy: des(core.CDVFS), jobs: func(t *testing.T) []job.Job {
			js := goldenJobs(t, 160, 3, 8)
			for i := range js {
				if i%3 == 0 {
					js[i].Class = "gold"
				} else {
					js[i].Class = "bulk"
				}
			}
			return js
		}},
		// Releases, deadlines and quantum ticks on a dyadic grid, so they
		// tie exactly: arrivals with each other, deadlines with later
		// arrivals and with quantum ticks. Only the FIFO sequence numbers
		// order these events.
		{name: "grid-ties", cfg: small, arch: core.CDVFS, policy: des(core.CDVFS), jobs: func(t *testing.T) []job.Job {
			js := make([]job.Job, 400)
			for k := range js {
				release := float64(k/2) / 64
				js[k] = job.Job{ID: job.ID(k), Release: release, Deadline: release + 0.125,
					Demand: 60 + float64((k*37)%200), Partial: true}
			}
			return js
		}},
		// An unsorted job slice with tied releases: the engine must order
		// arrivals by release, FIFO by slice position among ties.
		{name: "unsorted-ties", cfg: chaoticConfig, arch: core.CDVFS, policy: des(core.CDVFS), jobs: func(t *testing.T) []job.Job {
			js := goldenJobs(t, 180, 2, 9)
			for i := 4; i < len(js); i += 4 {
				js[i].Release = js[i-1].Release
			}
			rand.New(rand.NewSource(9)).Shuffle(len(js), func(a, b int) { js[a], js[b] = js[b], js[a] })
			return js
		}},
	}
}

// goldenDigests pins the engine's observable output per scenario. The
// values were recorded before the heap kept only in-flight events and the
// audit was memoized, and re-pinned once when segment ends became one
// timer per core: a replaced plan's segment ends stopped popping, so Events
// fell and nodvfs-budget-fault's BudgetViolations fell to its count over
// the live events (781 → 516); every other field stayed bit-identical, and
// TestLivePopOrderGolden pins the order of the events that remain. Any
// difference here is a change in simulated behaviour. The event counts are
// recorded alongside because they are the easiest part of a mismatch to
// read.
var goldenDigests = map[string]uint64{
	"paper-light":            0x5e74e79f34f552be, // events 2459
	"paper-heavy":            0xae32d6deea10ba38, // events 4761
	"chaotic":                0x15299d912b60a9c1, // events 1128
	"retry-outage":           0x404a9d22e544517,  // events 1203
	"sdvfs-discrete":         0xca22baa906a305c6, // events 1455
	"nodvfs-idle-burn":       0xd144eef37372faa0, // events 1321
	"nodvfs-budget-fault":    0xa44db62f7ab514b8, // events 1323
	"fcfs-wf":                0x3b65bb00608167b7, // events 995
	"immediate-triggers":     0x6a83472f637e21b1, // events 959
	"classed-prio-admission": 0x44c9faeff6d83d07, // events 1093
	"grid-ties":              0x67913abf4872d49,  // events 1191
	"unsorted-ties":          0x59b158ddf120462b, // events 955
}

func TestEngineGoldenDigests(t *testing.T) {
	for _, g := range engineGoldens() {
		t.Run(g.name, func(t *testing.T) {
			cfg := g.cfg()
			core.ApplyArch(&cfg, g.arch)
			fold := observed(&cfg)
			res, err := sim.Run(cfg, g.jobs(t), g.policy())
			if err != nil {
				t.Fatal(err)
			}
			d := newDigest()
			d.result(res)
			fold(d)
			if want := goldenDigests[g.name]; d.h != want {
				t.Errorf("digest %#x, want %#x (events %d)", d.h, want, res.Events)
			}
		})
	}
}

// Pinned results of the two checkpointed scenarios below, uninterrupted,
// and their event counts.
const (
	batchCheckpointDigest uint64 = 0x135fed3a737a74b7
	batchCheckpointEvents        = 360
	streamEpochsDigest    uint64 = 0x89bf3a36c7bdbe7c
	streamEpochsEvents           = 380
)

func batchCheckpointConfig() sim.Config {
	c := chaoticConfig()
	c.Retry = sim.RetryPolicy{MaxAttempts: 2, Backoff: 0.01, Multiplier: 2, MaxBackoff: 0.05}
	c.CollectJobs = true
	core.ApplyArch(&c, core.CDVFS)
	return c
}

func batchCheckpointJobs(t testing.TB) []job.Job { return goldenJobs(t, 80, 1.5, 13) }

func streamGoldenConfig() sim.Config {
	c := sim.PaperConfig()
	c.Cores = 4
	c.Budget = 80
	c.CollectJobs = true
	core.ApplyArch(&c, core.CDVFS)
	return c
}

func streamGoldenSource(t *testing.T) *workload.Stream {
	t.Helper()
	wl := workload.DefaultConfig(80)
	wl.Duration = 1.5
	wl.Seed = 12
	src, err := workload.NewStream(wl)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

const streamGoldenEpoch = 0.25

// streamEpochs drives a streamed session epoch by epoch from epoch first
// on, with an externally water-filled budget that varies per epoch. With
// fed set, the first epoch's budget and arrivals were already declared
// (a session restored from a snapshot taken right after its Feed). At
// epoch snapAt the session is snapshotted after its Feed and before its
// Advance, so the fed arrivals are still pending.
func streamEpochs(t *testing.T, st *sim.Stream, src *workload.Stream, first int, fed bool, snapAt int, keep func(*sim.Snapshot)) sim.Result {
	t.Helper()
	fracs := []float64{1, 0.7, 0.7, 0.5, 1, 0.8}
	for k := first; ; k++ {
		t0, t1 := float64(k-1)*streamGoldenEpoch, float64(k)*streamGoldenEpoch
		if !fed || k > first {
			st.ExtendBudget(t0, t1, fracs[k%len(fracs)])
			if err := st.Feed(src.Next(t1)); err != nil {
				t.Fatal(err)
			}
		}
		if k == snapAt {
			snap, err := st.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			keep(snap)
		}
		if src.Done() {
			st.CloseBudget()
			st.ExpectMore(false)
		}
		if err := st.Advance(t1); err != nil {
			t.Fatal(err)
		}
		if src.Done() {
			break
		}
	}
	res, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func digestOf(r sim.Result) uint64 {
	d := newDigest()
	d.result(r)
	return d.h
}

func TestCheckpointedScenariosGolden(t *testing.T) {
	res, err := sim.Run(batchCheckpointConfig(), batchCheckpointJobs(t), core.New(core.CDVFS))
	if err != nil {
		t.Fatal(err)
	}
	if got := digestOf(res); got != batchCheckpointDigest || res.Events != batchCheckpointEvents {
		t.Errorf("batch digest %#x with %d events, want %#x with %d", got, res.Events, batchCheckpointDigest, batchCheckpointEvents)
	}
	st, err := sim.NewStream(streamGoldenConfig(), core.New(core.CDVFS))
	if err != nil {
		t.Fatal(err)
	}
	res = streamEpochs(t, st, streamGoldenSource(t), 1, false, 0, nil)
	if got := digestOf(res); got != streamEpochsDigest || res.Events != streamEpochsEvents {
		t.Errorf("stream digest %#x with %d events, want %#x with %d", got, res.Events, streamEpochsDigest, streamEpochsEvents)
	}
}

func readSnapshot(t *testing.T, name string) *sim.Snapshot {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sim.DecodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// The fixtures are snapshots written by the engine that pushed every
// arrival and deadline into the heap up front, and every segment end of
// every installed plan: their event lists hold the arrival and deadline
// events of every job not yet arrived, and segment ends of replaced plans.
// The batch one is a legacy file of the retired sim-time checkpoint timer:
// no session state, every job of the workload, and the timer's next event.
// Resuming them must still reproduce the uninterrupted run bit for bit in
// every Result field but Events: that engine's counter includes the
// replaced plans' segment ends it popped before the snapshot, so the
// resumed Events are pinned on their own.
func TestResumeSnapshotsWithPendingArrivals(t *testing.T) {
	// resumed checks a resumed result's Events, then the rest of it
	// against the uninterrupted run.
	resumed := func(t *testing.T, res sim.Result, events, uninterruptedEvents int, want uint64) {
		t.Helper()
		if res.Events != events {
			t.Errorf("resumed run counts %d events, want %d", res.Events, events)
		}
		res.Events = uninterruptedEvents
		if got := digestOf(res); got != want {
			t.Errorf("resumed digest %#x, want %#x", got, want)
		}
	}
	t.Run("batch", func(t *testing.T) {
		st, err := sim.RestoreStream(batchCheckpointConfig(), core.New(core.CDVFS), readSnapshot(t, "checkpoint-v1-batch.json"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Finish()
		if err != nil {
			t.Fatal(err)
		}
		resumed(t, res, 451, batchCheckpointEvents, batchCheckpointDigest)
	})
	t.Run("stream", func(t *testing.T) {
		snap := readSnapshot(t, "checkpoint-v1-stream.json")
		st, err := sim.RestoreStream(streamGoldenConfig(), core.New(core.CDVFS), snap)
		if err != nil {
			t.Fatal(err)
		}
		src := streamGoldenSource(t)
		src.Next(snap.Stream.AdvancedTo + streamGoldenEpoch) // the jobs fed before the snapshot
		k := int(math.Round(snap.Stream.AdvancedTo/streamGoldenEpoch)) + 1
		resumed(t, streamEpochs(t, st, src, k, true, 0, nil), 404, streamEpochsEvents, streamEpochsDigest)
	})
}

// A snapshot whose pending arrivals do not line up with their deadline
// events or with the pending-arrival count is refused with a typed error.
func TestResumeRejectsInconsistentPendingArrivals(t *testing.T) {
	const arrival, deadline = 0, 1 // event kinds in the snapshot format
	// pending returns the indices of a pending job's arrival and deadline
	// events.
	pending := func(s *sim.Snapshot) (arr, dl int) {
		arr, dl = -1, -1
		for i, ev := range s.Events {
			if ev.Kind == arrival {
				arr = i
				break
			}
		}
		for i, ev := range s.Events {
			if arr >= 0 && ev.Kind == deadline && ev.Job == s.Events[arr].Job {
				dl = i
			}
		}
		if arr < 0 || dl < 0 {
			t.Fatal("fixture has no pending arrival")
		}
		return arr, dl
	}
	for name, corrupt := range map[string]func(*sim.Snapshot){
		"deadline missing": func(s *sim.Snapshot) {
			_, i := pending(s)
			s.Events = append(s.Events[:i], s.Events[i+1:]...)
		},
		"deadline sequence": func(s *sim.Snapshot) { _, i := pending(s); s.Events[i].Seq += 7 },
		"arrival time":      func(s *sim.Snapshot) { i, _ := pending(s); s.Events[i].T += 0.5 },
		"pending count":     func(s *sim.Snapshot) { s.Counters.PendingArrivals++ },
	} {
		t.Run(name, func(t *testing.T) {
			snap := readSnapshot(t, "checkpoint-v1-batch.json")
			corrupt(snap)
			_, err := sim.RestoreStream(batchCheckpointConfig(), core.New(core.CDVFS), snap)
			var ce *cfgerr.Error
			if !errors.As(err, &ce) {
				t.Fatalf("resume error %v, want a *cfgerr.Error", err)
			}
		})
	}
}

// segmentKind is the segment-end event kind in the snapshot format.
const segmentKind = 2

// A core's live segment events (those tagged with its plan version) must be
// the ends of its plan's last segments under consecutive sequence numbers;
// a snapshot that breaks this is refused with a typed error.
func TestResumeRejectsInconsistentSegmentEvents(t *testing.T) {
	// live returns the indices of a core's live segment events, in
	// sequence order.
	live := func(s *sim.Snapshot, c int) []int {
		var idx []int
		for i, ev := range s.Events {
			if ev.Kind == segmentKind && ev.Core == c && ev.Version == s.Cores[c].PlanVersion {
				idx = append(idx, i)
			}
		}
		sort.Slice(idx, func(a, b int) bool { return s.Events[idx[a]].Seq < s.Events[idx[b]].Seq })
		if len(idx) != len(s.Cores[c].Plan) {
			t.Fatalf("fixture core %d: %d live segment events for %d segments", c, len(idx), len(s.Cores[c].Plan))
		}
		return idx
	}
	for name, corrupt := range map[string]func(*sim.Snapshot){
		"more events than segments": func(s *sim.Snapshot) {
			last := s.Events[live(s, 0)[1]]
			last.Seq++
			s.Events = append(s.Events, last)
		},
		"event off its segment's end": func(s *sim.Snapshot) { s.Events[live(s, 0)[0]].T += 0.01 },
		"sequence numbers with a gap": func(s *sim.Snapshot) { s.Events[live(s, 0)[1]].Seq += 5 },
	} {
		t.Run(name, func(t *testing.T) {
			snap := readSnapshot(t, "checkpoint-v1-stream.json")
			corrupt(snap)
			_, err := sim.RestoreStream(streamGoldenConfig(), core.New(core.CDVFS), snap)
			var ce *cfgerr.Error
			if !errors.As(err, &ce) {
				t.Fatalf("resume error %v, want a *cfgerr.Error", err)
			}
		})
	}
}

// withoutEvents encodes everything in a snapshot but its event list.
func withoutEvents(s *sim.Snapshot) []byte {
	c := *s
	c.Events = nil
	b, _ := sim.EncodeSnapshot(&c)
	return b
}

// sameEventSet reports whether two snapshots list the same events, in
// whatever order.
func sameEventSet(a, b *sim.Snapshot) bool {
	set := func(s *sim.Snapshot) []string {
		out := make([]string, len(s.Events))
		for i, ev := range s.Events {
			b, _ := json.Marshal(ev)
			out[i] = string(b)
		}
		sort.Strings(out)
		return out
	}
	return slices.Equal(set(a), set(b))
}

// A session snapshot lists the same state as the fixture, written before
// the heap held only in-flight events and before segment ends became one
// timer per core: the same jobs, cores, counters and sequence counter, and
// the same set of events — the pending arrivals and their deadlines, and
// the live segment ends under their reserved numbers — only the heap-array
// order of the event list differs. Two differences are expected: the
// fixture's 3 segment ends of replaced plans (tagged with an older plan
// version) are gone, and events_processed no longer counts the 24 such
// events popped before the snapshot.
func TestSnapshotFormatUnchanged(t *testing.T) {
	t.Run("stream", func(t *testing.T) {
		st, err := sim.NewStream(streamGoldenConfig(), core.New(core.CDVFS))
		if err != nil {
			t.Fatal(err)
		}
		var got *sim.Snapshot
		streamEpochs(t, st, streamGoldenSource(t), 1, false, 3, func(s *sim.Snapshot) { got = s })
		want := readSnapshot(t, "checkpoint-v1-stream.json")
		live := want.Events[:0]
		for _, ev := range want.Events {
			if ev.Kind != segmentKind || ev.Version == want.Cores[ev.Core].PlanVersion {
				live = append(live, ev)
			}
		}
		if n := len(want.Events) - len(live); n != 3 || len(live) != 66 {
			t.Fatalf("fixture holds %d events, %d of them replaced plans' segment ends; want 66 and 3", len(live), n)
		}
		want.Events = live
		if want.Counters.EventsProcessed != 97 {
			t.Fatalf("fixture counts %d events processed, want 97", want.Counters.EventsProcessed)
		}
		want.Counters.EventsProcessed = 73
		if g, w := withoutEvents(got), withoutEvents(want); string(g) != string(w) {
			t.Errorf("snapshot state differs:\n%s\nwant\n%s", g, w)
		}
		if !sameEventSet(got, want) {
			t.Errorf("event sets differ: %d events, want %d", len(got.Events), len(want.Events))
		}
	})
}
