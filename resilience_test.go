package dessched_test

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"dessched"
)

// chaosRetryRun is a small server under a seeded chaos plan with the retry
// lifecycle on, collecting per-job outcomes.
func chaosRetryRun(t *testing.T) (dessched.ServerConfig, []dessched.Job) {
	t.Helper()
	cfg := dessched.PaperServer()
	cfg.Cores, cfg.Budget, cfg.CollectJobs = 4, 80, true
	cfg.Retry = dessched.RetryPolicy{MaxAttempts: 3, Backoff: 0.02}
	cc := dessched.DefaultChaos(3, 4, cfg.Cores)
	cc.MTTR = 0.5
	plan, err := cc.Generate()
	if err != nil {
		t.Fatal(err)
	}
	wl := dessched.PaperWorkload(60)
	wl.Duration, wl.Seed = 4, 3
	wl.Bursts = plan.Apply(&cfg)
	jobs, err := dessched.GenerateWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, jobs
}

// TestWithCheckpointResume: WithCheckpoint leaves the result bit for bit
// unchanged, ResumeSimulation from the first, middle and last snapshot
// reproduces the uninterrupted run, a sink error aborts the run, and a
// nil sink, a bad period or a fleet run are typed errors.
func TestWithCheckpointResume(t *testing.T) {
	cfg, jobs := chaosRetryRun(t)
	des := func() dessched.Policy { return dessched.NewDES(dessched.CDVFS) }
	base, err := dessched.Simulate(cfg, jobs, des())
	if err != nil {
		t.Fatal(err)
	}
	if base.Requeued == 0 {
		t.Fatal("the chaos plan evacuated no job")
	}
	var snaps [][]byte
	got, err := dessched.Simulate(cfg, jobs, des(), dessched.WithCheckpoint(0.5, func(s *dessched.SimSnapshot) error {
		b, err := dessched.EncodeSimSnapshot(s)
		snaps = append(snaps, b)
		return err
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, base) {
		t.Errorf("checkpointed run %v, want %v", got, base)
	}
	if len(snaps) < 3 {
		t.Fatalf("%d snapshots over a 4 s run every 0.5 s", len(snaps))
	}
	for _, k := range []int{0, len(snaps) / 2, len(snaps) - 1} {
		snap, err := dessched.DecodeSimSnapshot(snaps[k])
		if err != nil {
			t.Fatal(err)
		}
		res, err := dessched.ResumeSimulation(cfg, des(), snap)
		if err != nil {
			t.Fatalf("resume from snapshot %d: %v", k, err)
		}
		if !reflect.DeepEqual(res, base) {
			t.Errorf("resumed from snapshot %d: %v, want %v", k, res, base)
		}
	}

	crash := errors.New("disk full")
	if _, err := dessched.Simulate(cfg, jobs, des(), dessched.WithCheckpoint(0.5, func(*dessched.SimSnapshot) error { return crash })); !errors.Is(err, crash) {
		t.Errorf("failing sink: err = %v, want the sink error", err)
	}
	keep := func(*dessched.SimSnapshot) error { return nil }
	for name, opt := range map[string]dessched.SimOption{
		"nil sink":        dessched.WithCheckpoint(0.5, nil),
		"zero period":     dessched.WithCheckpoint(0, keep),
		"NaN period":      dessched.WithCheckpoint(math.NaN(), keep),
		"infinite period": dessched.WithCheckpoint(math.Inf(1), keep),
	} {
		if _, err := dessched.Simulate(cfg, jobs, des(), opt); err == nil {
			t.Errorf("%s accepted", name)
		} else if _, ok := dessched.AsConfigError(err); !ok {
			t.Errorf("%s: %v, want a *ConfigError", name, err)
		}
	}

	fleet := dessched.ClusterConfig{Servers: 2, Server: dessched.PaperServer()}
	fleet.Server.Cores, fleet.Server.Budget = 4, 80
	_, err = dessched.SimulateCluster(fleet, jobs, dessched.WithCheckpoint(1, keep))
	if _, ok := dessched.AsConfigError(err); !ok {
		t.Errorf("SimulateCluster with WithCheckpoint: %v, want a *ConfigError", err)
	}
}
