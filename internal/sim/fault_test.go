package sim

import (
	"testing"

	"dessched/internal/job"
)

func TestFaultValidate(t *testing.T) {
	good := Fault{Core: 0, Start: 1, End: 2, SpeedFactor: 0.5}
	if err := good.Validate(2); err != nil {
		t.Errorf("valid fault rejected: %v", err)
	}
	bad := []Fault{
		{Core: -1, Start: 1, End: 2, SpeedFactor: 0.5},
		{Core: 2, Start: 1, End: 2, SpeedFactor: 0.5},
		{Core: 0, Start: 2, End: 2, SpeedFactor: 0.5},
		{Core: 0, Start: 1, End: 2, SpeedFactor: -0.1},
		{Core: 0, Start: 1, End: 2, SpeedFactor: 1.5},
	}
	for i, f := range bad {
		if f.Validate(2) == nil {
			t.Errorf("case %d: invalid fault accepted", i)
		}
	}
	cfg := testCfg(1)
	cfg.Faults = []Fault{bad[0]}
	if cfg.Validate() == nil {
		t.Error("config with invalid fault accepted")
	}
}

func TestOutageHaltsProgress(t *testing.T) {
	cfg := testCfg(1)
	// Core 0 dead for the whole window: the job earns nothing despite a
	// full-speed plan.
	cfg.Faults = []Fault{{Core: 0, Start: 0, End: 1, SpeedFactor: 0}}
	jobs := []job.Job{{ID: 0, Release: 0, Deadline: 0.15, Demand: 100, Partial: true}}
	res, err := Run(cfg, jobs, &fifoPolicy{speed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 || res.Quality != 0 {
		t.Errorf("outage should zero progress: %+v", res)
	}
	// Power is still drawn for the throttled plan (wasted cycles).
	if res.Energy == 0 {
		t.Error("throttled core should still burn its planned power")
	}
}

// upOnlyPolicy plans like fifoPolicy, but only while core 0 is up, so an
// outage evacuation is the last word on the core's plan until it recovers.
type upOnlyPolicy struct{ fifoPolicy }

func (p *upOnlyPolicy) Plan(now float64, s *State) {
	if s.CoreFaultFactor(0) > 0 {
		p.fifoPolicy.Plan(now, s)
	}
}

// An outage evacuation stops the core's segment timer: the cleared plan's
// segment end never pops, even when no later install re-keys the timer.
func TestEvacuationStopsSegmentTimer(t *testing.T) {
	cfg := testCfg(1)
	cfg.Faults = []Fault{{Core: 0, Start: 0.05, End: 0.5, SpeedFactor: 0}}
	jobs := []job.Job{{ID: 0, Release: 0, Deadline: 0.15, Demand: 100, Partial: true}}
	st, err := Start(cfg, jobs, &upOnlyPolicy{fifoPolicy{speed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := DriveLivePops(st, func(LivePop) {}); err != nil {
		t.Fatal(err)
	}
	res, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Requeued != 1 {
		t.Errorf("%d jobs evacuated, want 1", res.Requeued)
	}
}

func TestThrottleHalvesProgress(t *testing.T) {
	cfg := testCfg(1)
	cfg.Faults = []Fault{{Core: 0, Start: 0, End: 1, SpeedFactor: 0.5}}
	// 2 GHz plan over 150 ms would deliver 300 units; at half effect it
	// delivers 150 of the 300-unit demand.
	jobs := []job.Job{{ID: 0, Release: 0, Deadline: 0.15, Demand: 300, Partial: true}}
	res, err := Run(cfg, jobs, &fifoPolicy{speed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 {
		t.Fatalf("half-speed core completed a full-capacity job: %+v", res)
	}
	want := cfg.Quality.Eval(150) / cfg.Quality.Eval(300)
	if diff := res.NormQuality - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("NormQuality = %v, want %v", res.NormQuality, want)
	}
}

func TestFaultBoundaryMidJob(t *testing.T) {
	cfg := testCfg(1)
	// Outage covers only the first half of the execution window.
	cfg.Faults = []Fault{{Core: 0, Start: 0, End: 0.075, SpeedFactor: 0}}
	jobs := []job.Job{{ID: 0, Release: 0, Deadline: 0.15, Demand: 300, Partial: true}}
	res, err := Run(cfg, jobs, &fifoPolicy{speed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Second half at 2 GHz delivers 150 units.
	want := cfg.Quality.Eval(150) / cfg.Quality.Eval(300)
	if diff := res.NormQuality - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("NormQuality = %v, want %v", res.NormQuality, want)
	}
}

func TestFaultNeverImprovesQuality(t *testing.T) {
	mk := func(faults []Fault) Result {
		cfg := testCfg(1)
		cfg.Faults = faults
		jobs := []job.Job{
			{ID: 0, Release: 0, Deadline: 0.15, Demand: 250, Partial: true},
			{ID: 1, Release: 0.01, Deadline: 0.16, Demand: 250, Partial: true},
		}
		res, err := Run(cfg, jobs, &fifoPolicy{speed: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	healthy := mk(nil)
	degraded := mk([]Fault{{Core: 0, Start: 0.02, End: 0.1, SpeedFactor: 0.3}})
	if degraded.Quality > healthy.Quality+1e-9 {
		t.Errorf("fault improved quality: %v > %v", degraded.Quality, healthy.Quality)
	}
}

func TestCollectJobsOutcomes(t *testing.T) {
	cfg := testCfg(1)
	cfg.CollectJobs = true
	jobs := []job.Job{
		{ID: 0, Release: 0, Deadline: 0.15, Demand: 100, Partial: true},
		{ID: 1, Release: 0.2, Deadline: 0.35, Demand: 600, Partial: true},
	}
	res, err := Run(cfg, jobs, &fifoPolicy{speed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("Jobs = %+v", res.Jobs)
	}
	first := res.Jobs[0]
	if !first.Satisfied() || first.Reason != Completed {
		t.Errorf("first outcome = %+v", first)
	}
	if l := first.Latency(); l <= 0 || l > 0.15+1e-9 {
		t.Errorf("latency = %v", l)
	}
	second := res.Jobs[1]
	if second.Satisfied() || second.Done < 150-1e-6 || second.Done > 150+1e-6 {
		t.Errorf("second outcome = %+v", second)
	}
	// Off by default.
	cfg.CollectJobs = false
	res, _ = Run(cfg, jobs, &fifoPolicy{speed: 1})
	if res.Jobs != nil {
		t.Error("outcomes collected without CollectJobs")
	}
}
