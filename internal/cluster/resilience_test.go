package cluster

import (
	"errors"
	"reflect"
	"testing"

	"dessched/internal/cfgerr"
	"dessched/internal/job"
	"dessched/internal/sim"
)

// resilientConfig is a degraded fleet with the full recovery stack armed:
// per-server chaos outages, retry with backoff, and hedged dispatch for the
// tightest-deadline jobs.
func resilientConfig(t *testing.T, servers int) Config {
	t.Helper()
	cfg := testConfig(servers)
	cfg.GlobalBudget = 0.7 * float64(servers) * cfg.Server.Budget
	cfg.Server.Retry = sim.RetryPolicy{MaxAttempts: 3, Backoff: 0.02, MaxBackoff: 0.2}
	cfg.Hedge = HedgeConfig{Window: 0.15, Limit: 60}
	faults, err := ChaosFaults(21, 60, servers, cfg.Server.Cores)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = faults
	return cfg
}

// sameRecovery extends exactlyEqual to the recovery counters.
func sameRecovery(t *testing.T, a, b Result, label string) {
	t.Helper()
	if a.Retried != b.Retried || a.Abandoned != b.Abandoned ||
		a.Hedged != b.Hedged || a.HedgeWins != b.HedgeWins {
		t.Errorf("%s: recovery counters differ: retried %d/%d abandoned %d/%d hedged %d/%d wins %d/%d",
			label, a.Retried, b.Retried, a.Abandoned, b.Abandoned, a.Hedged, b.Hedged, a.HedgeWins, b.HedgeWins)
	}
	if !bitsEq(a.RetryQuality, b.RetryQuality) || !bitsEq(a.HedgeQuality, b.HedgeQuality) {
		t.Errorf("%s: recovery quality differs: retry %v/%v hedge %v/%v",
			label, a.RetryQuality, b.RetryQuality, a.HedgeQuality, b.HedgeQuality)
	}
}

func bitsEq(a, b float64) bool { return a == b || (a != a && b != b) }

// TestClusterRetryHedgeDeterministic: a chaos-degraded cluster with retries
// and hedged dispatch stays bit-identical for any worker count, and the
// hedge resolution counts every logical job exactly once.
func TestClusterRetryHedgeDeterministic(t *testing.T) {
	jobs := testJobs(t, 160, 60)
	cfg := resilientConfig(t, 6)

	var base Result
	for i, workers := range []int{1, 4, 16} {
		cfg.Workers = workers
		res, err := Run(cfg, jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			base = res
			continue
		}
		exactlyEqual(t, base, res, "retry+hedge")
		sameRecovery(t, base, res, "retry+hedge")
	}

	if base.Hedged == 0 {
		t.Error("no jobs hedged despite every deadline window within the hedge window")
	}
	if base.Hedged > cfg.Hedge.Limit {
		t.Errorf("hedged %d jobs over the limit %d", base.Hedged, cfg.Hedge.Limit)
	}
	// Loser subtraction must restore per-logical-job accounting.
	if base.Arrived != len(jobs) {
		t.Errorf("arrived %d after hedge resolution, want %d (each job once)", base.Arrived, len(jobs))
	}
	if got := base.Completed + base.Deadlined + base.Discarded + base.Shed + base.Abandoned; got > base.Arrived {
		t.Errorf("outcomes sum to %d > %d arrivals", got, base.Arrived)
	}
	if base.HedgeQuality < 0 {
		t.Errorf("hedge quality gain is negative: %g", base.HedgeQuality)
	}
	if base.NormQuality < 0 || base.NormQuality > 1 {
		t.Errorf("normalized quality %g out of [0, 1] after subtraction", base.NormQuality)
	}
}

// TestClusterHedgeRecoversQuality pins the rescue mechanism exactly: a job
// dispatched to a server that goes dark mid-execution is stranded there (it
// evacuates into the dead server's queue and misses its deadline with
// partial quality), but its hedge replica on the healthy server completes —
// first-completion-wins credits the full quality, and the dead replica's
// partial outcome is subtracted. The duplicated energy stays visible.
func TestClusterHedgeRecoversQuality(t *testing.T) {
	jobs := []job.Job{{ID: 0, Release: 0, Deadline: 0.15, Demand: 300, Partial: true}}
	cfg := testConfig(2)
	// Round-robin sends job 0 to server 0; all of server 0 goes dark at
	// t = 0.02 and stays dark past the deadline.
	faults := make([][]sim.Fault, cfg.Servers)
	for c := 0; c < cfg.Server.Cores; c++ {
		faults[0] = append(faults[0], sim.Fault{Core: c, Start: 0.02, End: 10, SpeedFactor: 0})
	}
	cfg.Faults = faults

	plain, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Completed != 0 {
		t.Fatalf("unhedged job completed despite the outage (%+v)", plain)
	}

	cfg.Hedge = HedgeConfig{Window: 0.15}
	hedged, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if hedged.Hedged != 1 || hedged.HedgeWins != 1 {
		t.Fatalf("hedged %d / wins %d, want 1 / 1", hedged.Hedged, hedged.HedgeWins)
	}
	if hedged.Completed != 1 || hedged.Arrived != 1 {
		t.Errorf("hedge resolution: completed %d arrived %d, want 1 / 1", hedged.Completed, hedged.Arrived)
	}
	if hedged.Quality <= plain.Quality {
		t.Errorf("hedge failed to recover quality: %g -> %g", plain.Quality, hedged.Quality)
	}
	if hedged.HedgeQuality <= 0 {
		t.Errorf("hedge quality gain %g, want > 0", hedged.HedgeQuality)
	}
	if hedged.Energy <= plain.Energy {
		t.Errorf("hedging reported no energy cost: %g -> %g (duplicated work must stay visible)",
			plain.Energy, hedged.Energy)
	}
}

// checkpointedRun runs cfg over jobs with an epoch snapshot taken every
// epoch, returning the result and the encoded snapshots in order.
func checkpointedRun(t *testing.T, cfg Config, jobs []job.Job) (Result, [][]byte) {
	t.Helper()
	var blobs [][]byte
	cfg.StreamCheckpoint = &StreamCheckpointConfig{Every: 1, Sink: func(s *StreamSnapshot) error {
		b, err := EncodeStreamSnapshot(s)
		blobs = append(blobs, b)
		return err
	}}
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return res, blobs
}

// TestClusterCheckpointResume: on a chaos-degraded fleet with retries and
// hedging, resuming from an epoch snapshot — through the JSON round trip —
// reproduces the uninterrupted run bit for bit, whatever the worker count
// of either half.
func TestClusterCheckpointResume(t *testing.T) {
	jobs := testJobs(t, 160, 12)
	cfg := resilientConfig(t, 6)

	base, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	got, blobs := checkpointedRun(t, cfg, jobs)
	if !reflect.DeepEqual(got, base) {
		t.Fatal("checkpointing changed the run's result")
	}
	if len(blobs) < 12 {
		t.Fatalf("%d snapshots, want one per epoch over a 12 s stream", len(blobs))
	}
	for i, k := range []int{0, len(blobs) / 2, len(blobs) - 1} {
		snap, err := DecodeStreamSnapshot(blobs[k])
		if err != nil {
			t.Fatal(err)
		}
		rcfg := cfg
		rcfg.Workers = []int{1, 4, 16}[i]
		res, err := ResumeStream(rcfg, job.NewSliceSource(jobs), snap)
		if err != nil {
			t.Fatalf("resume from epoch %d: %v", snap.Epoch, err)
		}
		if !reflect.DeepEqual(res, base) {
			t.Fatalf("workers=%d: resume from epoch %d diverged from the uninterrupted run", rcfg.Workers, snap.Epoch)
		}
		sameRecovery(t, base, res, "resumed")
	}
}

// TestClusterCheckpointCrash: a failing sink aborts the run, and the last
// delivered snapshot resumes to the uninterrupted result.
func TestClusterCheckpointCrash(t *testing.T) {
	jobs := testJobs(t, 160, 12)
	cfg := resilientConfig(t, 6)

	base, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}

	crash := errors.New("disk full")
	var last []byte
	n := 0
	for _, workers := range []int{1, 4, 16} {
		ck := cfg
		ck.Workers = workers
		n, last = 0, nil
		ck.StreamCheckpoint = &StreamCheckpointConfig{Every: 2, Sink: func(s *StreamSnapshot) error {
			if n++; n > 3 {
				return crash
			}
			var err error
			last, err = EncodeStreamSnapshot(s)
			return err
		}}
		if _, err := Run(ck, jobs); !errors.Is(err, crash) {
			t.Fatalf("workers=%d: crashed run returned %v, want the sink error", workers, err)
		}
		snap, err := DecodeStreamSnapshot(last)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Epoch != 6 {
			t.Fatalf("workers=%d: the surviving snapshot is at epoch %d, want 6", workers, snap.Epoch)
		}
		res, err := ResumeStream(cfg, job.NewSliceSource(jobs), snap)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, base) {
			t.Fatalf("workers=%d: crash-resume diverged from the uninterrupted run", workers)
		}
	}
}

// TestClusterCheckpointRejects pins the typed-error surface: config/snapshot
// mismatches, instrumented checkpointing, and malformed snapshots.
func TestClusterCheckpointRejects(t *testing.T) {
	jobs := testJobs(t, 60, 6)
	cfg := resilientConfig(t, 4)

	_, blobs := checkpointedRun(t, cfg, jobs)
	if len(blobs) == 0 {
		t.Fatal("no snapshot taken")
	}
	snap, err := DecodeStreamSnapshot(blobs[len(blobs)/2])
	if err != nil {
		t.Fatal(err)
	}

	var ce *cfgerr.Error
	wrong := cfg
	wrong.GlobalBudget *= 0.5
	if _, err := ResumeStream(wrong, job.NewSliceSource(jobs), snap); !errors.As(err, &ce) {
		t.Errorf("resume under a different global budget: err = %v, want *cfgerr.Error", err)
	}
	if _, err := ResumeStream(cfg, job.NewSliceSource(jobs[1:]), snap); !errors.As(err, &ce) {
		t.Errorf("resume with a different workload: err = %v, want *cfgerr.Error", err)
	}
	if _, err := ResumeStream(cfg, job.NewSliceSource(jobs), nil); !errors.As(err, &ce) {
		t.Errorf("nil snapshot: err = %v, want *cfgerr.Error", err)
	}

	bad := cfg
	bad.StreamCheckpoint = &StreamCheckpointConfig{Every: 1, Sink: func(*StreamSnapshot) error { return nil }}
	bad.Instrument = &Instrument{Traces: true}
	if _, err := Run(bad, jobs); !errors.As(err, &ce) {
		t.Errorf("checkpoint+instrument accepted: %v", err)
	}
	noSink := cfg
	noSink.StreamCheckpoint = &StreamCheckpointConfig{Every: 1}
	if _, err := Run(noSink, jobs); !errors.As(err, &ce) {
		t.Errorf("sinkless checkpoint accepted: %v", err)
	}

	if _, err := DecodeStreamSnapshot([]byte(`not json`)); !errors.As(err, &ce) {
		t.Errorf("garbage snapshot decode: err = %v, want *cfgerr.Error", err)
	}
	if _, err := DecodeStreamSnapshot([]byte(`{"version":"dessched-checkpoint/v1","kind":"cluster","servers":2,"done":[{"server":1}]}`)); !errors.As(err, &ce) {
		t.Errorf("retired completed-server snapshot accepted: %v", err)
	}
	if _, err := DecodeStreamSnapshot([]byte(`{"version":"dessched-checkpoint/v1","kind":"cluster-stream","servers":2,"per_server":[{}]}`)); !errors.As(err, &ce) {
		t.Errorf("snapshot with a missing engine state accepted: %v", err)
	}
}

// TestHedgeValidate pins the hedge config's error surface.
func TestHedgeValidate(t *testing.T) {
	var ce *cfgerr.Error
	if err := (HedgeConfig{Window: -1}).Validate(); !errors.As(err, &ce) {
		t.Errorf("negative window accepted: %v", err)
	}
	if err := (HedgeConfig{Window: 0.1, Limit: -2}).Validate(); !errors.As(err, &ce) {
		t.Errorf("negative limit accepted: %v", err)
	}
	if (HedgeConfig{}).Enabled() {
		t.Error("zero hedge config reports enabled")
	}
}
