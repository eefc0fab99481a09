package cluster

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dessched/internal/cfgerr"
	"dessched/internal/job"
	"dessched/internal/sim"
	"dessched/internal/telemetry/span"
	"dessched/internal/workload"
	"dessched/internal/workloadspec"
)

// withoutOutcomes clears the per-server job outcomes, which a hedged run
// over a job slice collects and a run over a lazy source does not.
func withoutOutcomes(r Result) Result {
	per := append([]ServerResult(nil), r.PerServer...)
	for i := range per {
		per[i].Result.Jobs = nil
	}
	r.PerServer = per
	return r
}

// TestRunStreamMatchesRun pins a run over the lazy workload generator
// bit-identical to Run over the materialized job slice — quality, energy,
// event counts, budget shares, per-class and per-server breakdowns, hedge
// resolution — across dispatch policies, global-budget pressure, faults,
// and hedging.
func TestRunStreamMatchesRun(t *testing.T) {
	wl := workload.DefaultConfig(120)
	wl.Duration = 3
	jobs, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := map[string]func() Config{
		"plain": func() Config { return testConfig(4) },
		"global-budget": func() Config {
			cfg := testConfig(4)
			cfg.GlobalBudget = 200
			cfg.Epoch = 0.5
			return cfg
		},
		"least-loaded": func() Config {
			cfg := testConfig(4)
			cfg.Dispatch = LeastLoaded
			cfg.GlobalBudget = 220
			return cfg
		},
		"hash": func() Config {
			cfg := testConfig(4)
			cfg.Dispatch = Hash
			return cfg
		},
		"faults": func() Config {
			cfg := testConfig(3)
			cfg.GlobalBudget = 150
			cfg.Epoch = 0.5
			cfg.Faults = [][]sim.Fault{
				nil,
				{{Core: 0, Start: 0.5, End: 1.5, SpeedFactor: 0}, {Core: 1, Start: 0.5, End: 1.5, SpeedFactor: 0}, {Core: 2, Start: 0.5, End: 1.5, SpeedFactor: 0}, {Core: 3, Start: 0.5, End: 1.5, SpeedFactor: 0}},
				{{Core: 2, Start: 1, End: 2, SpeedFactor: 0.5}},
			}
			return cfg
		},
		"hedged": func() Config {
			cfg := testConfig(4)
			cfg.GlobalBudget = 200
			cfg.Hedge = HedgeConfig{Window: 0.12}
			return cfg
		},
		"retry": func() Config {
			cfg := testConfig(3)
			cfg.Server.Retry = sim.RetryPolicy{MaxAttempts: 2, Backoff: 0.01, Multiplier: 2, MaxBackoff: 0.05}
			cfg.Faults = [][]sim.Fault{
				{{Core: 0, Start: 0.4, End: 0.9, SpeedFactor: 0}},
				nil,
				nil,
			}
			return cfg
		},
	}
	for name, mk := range scenarios {
		mk := mk
		t.Run(name, func(t *testing.T) {
			cfg := mk()
			want, err := Run(cfg, jobs)
			if err != nil {
				t.Fatal(err)
			}
			src, err := workload.NewStream(wl)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunStream(cfg, src)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, withoutOutcomes(want)) {
				t.Fatalf("lazy-source result diverged from the job slice\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestRunStreamClassesMatchRun covers the classed aggregate over a lazy
// spec stream (per-class merge order and hedge class subtraction).
func TestRunStreamClassesMatchRun(t *testing.T) {
	spec := &workloadspec.Spec{
		Schema:   workloadspec.SchemaV1,
		Name:     "stream-two-class",
		Duration: 2,
		Seed:     11,
		Classes: []workloadspec.ClassSpec{
			{Name: "interactive", Rate: 80, Deadline: 0.15,
				Demand: workloadspec.DemandSpec{Dist: "bounded-pareto", Alpha: 3, Min: 130, Max: 1000}},
			{Name: "batch", Rate: 10, Deadline: 1,
				Demand: workloadspec.DemandSpec{Dist: "uniform", Min: 200, Max: 800}},
		},
	}
	jobs, err := workloadspec.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(3)
	cfg.GlobalBudget = 150
	cfg.Hedge = HedgeConfig{Window: 0.1}
	want, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	src, err := workloadspec.NewStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunStream(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Classes) == 0 {
		t.Fatal("lazy-source run lost the class breakdown")
	}
	if !reflect.DeepEqual(got, withoutOutcomes(want)) {
		t.Fatalf("classed lazy-source result diverged\ngot  %+v\nwant %+v", got, want)
	}
}

// TestRunStreamWorkersBitIdentical pins the epoch loop's determinism
// across worker counts: the full Result must be byte-for-byte identical
// for Workers 1, 4, and 16.
func TestRunStreamWorkersBitIdentical(t *testing.T) {
	jobs := testJobs(t, 150, 3)
	base := testConfig(8)
	base.GlobalBudget = 400
	base.Epoch = 0.5
	base.Dispatch = LeastLoaded
	base.Hedge = HedgeConfig{Window: 0.12}

	var want Result
	for i, workers := range []int{1, 4, 16} {
		cfg := base
		cfg.Workers = workers
		got, err := RunStream(cfg, job.NewSliceSource(jobs))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: streamed result differs from workers=1", workers)
		}
	}
}

// TestRunStreamMemoryBounded streams a 64-server, 200k-job run and asserts
// the heap never grows to the materialized footprint: a background sampler
// records the peak HeapAlloc delta over the run, which must stay far below
// what holding every job, event, and outcome at once would cost.
func TestRunStreamMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("memory guard is a long test")
	}
	wl := workload.DefaultConfig(4000) // ~200k jobs over 50 s
	wl.Duration = 50
	wl.Seed = 7
	src, err := workload.NewStream(wl)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(64)
	cfg.GlobalBudget = 64 * 60
	cfg.Dispatch = LeastLoaded

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				runtime.ReadMemStats(&ms)
				for {
					old := peak.Load()
					if ms.HeapAlloc <= old || peak.CompareAndSwap(old, ms.HeapAlloc) {
						break
					}
				}
			}
		}
	}()
	res, err := RunStream(cfg, src)
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived < 150_000 {
		t.Fatalf("expected ~200k arrivals, got %d", res.Arrived)
	}
	const ceiling = 192 << 20 // bytes of growth over the pre-run heap
	if p := peak.Load(); p > base.HeapAlloc && p-base.HeapAlloc > ceiling {
		t.Fatalf("peak heap grew %d MiB over baseline (ceiling %d MiB) — the stream is materializing",
			(p-base.HeapAlloc)>>20, uint64(ceiling)>>20)
	}
}

// TestRunStreamCheckpointResume interrupts a run at an epoch boundary via
// StreamCheckpoint, resumes from the encoded snapshot with a fresh source,
// and requires the resumed result bit-identical to the uninterrupted run —
// including hedge resolution and budget windows.
func TestRunStreamCheckpointResume(t *testing.T) {
	jobs := testJobs(t, 120, 3)
	base := testConfig(4)
	base.GlobalBudget = 200
	base.Epoch = 0.5
	base.Dispatch = LeastLoaded
	base.Hedge = HedgeConfig{Window: 0.12}

	want, err := RunStream(base, job.NewSliceSource(jobs))
	if err != nil {
		t.Fatal(err)
	}

	var blobs [][]byte
	ck := base
	ck.StreamCheckpoint = &StreamCheckpointConfig{
		Every: 2,
		Sink: func(s *StreamSnapshot) error {
			b, err := EncodeStreamSnapshot(s)
			if err != nil {
				return err
			}
			blobs = append(blobs, b)
			return nil
		},
	}
	if _, err := RunStream(ck, job.NewSliceSource(jobs)); err != nil {
		t.Fatal(err)
	}
	if len(blobs) == 0 {
		t.Fatal("no checkpoints emitted")
	}

	for i, blob := range blobs {
		snap, err := DecodeStreamSnapshot(blob)
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		got, err := ResumeStream(base, job.NewSliceSource(jobs), snap)
		if err != nil {
			t.Fatalf("resume from epoch %d: %v", snap.Epoch, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("resume from epoch %d diverged from the uninterrupted run", snap.Epoch)
		}
	}
}

// TestResumeStreamRejectsMismatches pins the typed failure modes of
// ResumeStream: changed configuration, a source that does not replay the
// checkpointed prefix, and a retired completed-server snapshot.
func TestResumeStreamRejectsMismatches(t *testing.T) {
	jobs := testJobs(t, 100, 2)
	cfg := testConfig(3)
	cfg.GlobalBudget = 150
	cfg.Epoch = 0.5

	var snap *StreamSnapshot
	ck := cfg
	ck.StreamCheckpoint = &StreamCheckpointConfig{
		Every: 2,
		Sink: func(s *StreamSnapshot) error {
			if snap == nil {
				b, err := EncodeStreamSnapshot(s)
				if err != nil {
					return err
				}
				snap, err = DecodeStreamSnapshot(b)
				return err
			}
			return nil
		},
	}
	if _, err := RunStream(ck, job.NewSliceSource(jobs)); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no checkpoint captured")
	}

	changed := cfg
	changed.GlobalBudget = 151
	if _, err := ResumeStream(changed, job.NewSliceSource(jobs), snap); err == nil {
		t.Fatal("resume accepted a changed configuration")
	}

	other := testJobs(t, 90, 2)
	if _, err := ResumeStream(cfg, job.NewSliceSource(other), snap); err == nil {
		t.Fatal("resume accepted a source that does not replay the checkpointed prefix")
	}

	if _, err := DecodeStreamSnapshot([]byte(`{"version":"dessched-checkpoint/v1","kind":"cluster","servers":3}`)); err == nil {
		t.Fatal("decoder accepted a retired completed-server snapshot")
	}
}

// TestResumeStreamRejectsOneULP: a source of the snapshot's length whose
// prefix differs from the original in one job's demand by one ulp fails
// the rolling-hash check, whether or not the resumed configuration
// checkpoints — a resume hashes its replayed prefix either way — while the
// original source resumes under both.
func TestResumeStreamRejectsOneULP(t *testing.T) {
	jobs := testJobs(t, 100, 2)
	cfg := testConfig(3)
	cfg.GlobalBudget = 150
	cfg.Epoch = 0.5

	var snap *StreamSnapshot
	ck := cfg
	ck.StreamCheckpoint = &StreamCheckpointConfig{Every: 2, Sink: func(s *StreamSnapshot) error {
		if snap == nil {
			snap = s
		}
		return nil
	}}
	if _, err := RunStream(ck, job.NewSliceSource(jobs)); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no checkpoint captured")
	}
	k := snap.JobsFed - 1 // the last job of the checkpointed prefix
	if k < 0 {
		t.Fatal("the snapshot covers no jobs")
	}
	drifted := append([]job.Job(nil), jobs...)
	drifted[k].Demand = math.Nextafter(drifted[k].Demand, math.Inf(1))

	for name, resumed := range map[string]Config{"plain": cfg, "checkpointing": ck} {
		if _, err := ResumeStream(resumed, job.NewSliceSource(jobs), snap); err != nil {
			t.Errorf("%s: resume from the original source: %v", name, err)
		}
		var ce *cfgerr.Error
		if _, err := ResumeStream(resumed, job.NewSliceSource(drifted), snap); !errors.As(err, &ce) {
			t.Errorf("%s: resume from a source with job %d's demand one ulp up returned %v, want *cfgerr.Error", name, k, err)
		}
	}
}

// TestRunStreamRejectsBatchKnobs pins the slice-vs-lazy probe rule: over a
// lazy source the probes that grow with the run are rejected with typed
// errors; over a job slice the same configurations run.
func TestRunStreamRejectsBatchKnobs(t *testing.T) {
	wl := workload.DefaultConfig(50)
	wl.Duration = 1
	jobs, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	growing := map[string]func(*Config){
		"collect-jobs": func(c *Config) { c.Server.CollectJobs = true },
		"traces":       func(c *Config) { c.Instrument = &Instrument{Traces: true} },
		"full-tracer":  func(c *Config) { c.Instrument = &Instrument{Tracer: span.New()} },
	}
	for name, mod := range growing {
		cfg := testConfig(2)
		mod(&cfg)
		src, err := workload.NewStream(wl)
		if err != nil {
			t.Fatal(err)
		}
		var ce *cfgerr.Error
		if _, err := RunStream(cfg, src); !errors.As(err, &ce) {
			t.Errorf("%s: RunStream over a lazy source returned %v, want *cfgerr.Error", name, err)
		}
		if _, err := RunStream(cfg, job.NewSliceSource(jobs)); err != nil {
			t.Errorf("%s: RunStream over a job slice: %v", name, err)
		}
		if _, err := Run(cfg, jobs); err != nil {
			t.Errorf("%s: Run: %v", name, err)
		}
	}
}

// TestHedgeReplicasStayInsideBudgetHorizon is the regression test for the
// hedge/budget-window interaction: replicas duplicate existing jobs, so
// they must never extend the budget-epoch schedule past ⌈horizon/ε⌉·ε, and
// their demand must be counted by the water-filling stage (the replica
// lands on another server whose epoch request must grow).
func TestHedgeReplicasStayInsideBudgetHorizon(t *testing.T) {
	// Two servers, two jobs: the second job is tight enough to hedge and is
	// the horizon-defining last job.
	mk := func(window float64) Config {
		cfg := testConfig(2)
		cfg.GlobalBudget = 100 // scarce: half of 2×80 nominal
		cfg.Epoch = 0.5
		cfg.Hedge = HedgeConfig{Window: window}
		return cfg
	}
	// Demands are large enough that each server's epoch power request
	// saturates its 80 W availability cap — otherwise the leftover
	// water-fill tops every server up identically and the replica's demand
	// would be invisible in the shares.
	jobs := []job.Job{
		{ID: 1, Release: 0.1, Deadline: 0.65, Demand: 40000},
		{ID: 2, Release: 0.6, Deadline: 0.7, Demand: 40000}, // hedged (window 0.1)
	}
	horizon := 0.7
	epochs := 2 // ceil(0.7 / 0.5)

	hedged, err := Run(mk(0.1), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if hedged.Hedged != 1 {
		t.Fatalf("expected 1 hedged pair, got %d", hedged.Hedged)
	}
	plain, err := Run(mk(0), jobs)
	if err != nil {
		t.Fatal(err)
	}

	// The budget schedule must end exactly at the epoch grid covering the
	// horizon, replica or not: per-server budget windows may never reach
	// past ceil(horizon/epoch)*epoch.
	limit := float64(epochs) * 0.5
	for _, window := range [...]float64{0.1, 0} {
		for s, w := range budgetWindowsFor(t, mk(window), jobs) {
			for _, f := range w {
				if f.End > limit {
					t.Fatalf("hedge window %g: server %d budget window reaches %g past the horizon grid %g (horizon %g)", window, s, f.End, limit, horizon)
				}
			}
		}
	}

	// The replica's demand must shift the water-fill: with hedging on, the
	// secondary server's budget share grows in the replica's epoch.
	if hedged.PerServer[0].BudgetShareW == plain.PerServer[0].BudgetShareW &&
		hedged.PerServer[1].BudgetShareW == plain.PerServer[1].BudgetShareW {
		t.Fatal("hedged replica demand did not influence the budget water-fill")
	}
}

// budgetWindowsFor returns the per-server budget windows the given run
// installs, as reported with executed-schedule traces on.
func budgetWindowsFor(t *testing.T, cfg Config, jobs []job.Job) [][]sim.BudgetFault {
	t.Helper()
	return budgetRun(t, cfg, jobs).BudgetWindows
}

// BenchmarkIngest runs the coordinator's ingest stage — validate, hash
// when a snapshot reads it, route, account, hedge — on one 1 s epoch of
// the fleet-paper workload's stream (61,440 jobs) into 1,024 round-robin
// servers under an 85% global budget. Each iteration builds its
// coordinator outside the timer.
func BenchmarkIngest(b *testing.B) {
	wl := workload.DefaultConfig(61440)
	wl.Duration = 1
	arr, err := workload.Generate(wl)
	if err != nil {
		b.Fatal(err)
	}
	cfg := testConfig(1024)
	cfg.Dispatch = RoundRobin
	cfg.GlobalBudget = 0.85 * 1024 * 80
	jobs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := newCoordinator(cfg, false)
		b.StartTimer()
		if err := c.ingest(0, arr); err != nil {
			b.Fatal(err)
		}
		jobs += len(arr)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(jobs), "ns/job")
}
