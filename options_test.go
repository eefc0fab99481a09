package dessched_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"dessched"
)

func smallRun(t *testing.T) (dessched.ServerConfig, []dessched.Job) {
	t.Helper()
	cfg := dessched.PaperServer()
	cfg.Cores = 4
	cfg.Budget = 80
	wl := dessched.PaperWorkload(30)
	wl.Duration = 5
	jobs, err := dessched.GenerateWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, jobs
}

// TestSimulateNoOptionsUnchanged: the redesigned entry point without
// options is byte-for-byte the old behavior.
func TestSimulateNoOptionsUnchanged(t *testing.T) {
	cfg, jobs := smallRun(t)
	a, err := dessched.Simulate(cfg, jobs, dessched.NewDES(dessched.CDVFS))
	if err != nil {
		t.Fatal(err)
	}
	b, err := dessched.Simulate(cfg, jobs, dessched.NewDES(dessched.CDVFS))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.Quality) != math.Float64bits(b.Quality) ||
		math.Float64bits(a.Energy) != math.Float64bits(b.Energy) {
		t.Error("repeat runs diverged")
	}
}

func TestWithObserverAndTelemetry(t *testing.T) {
	cfg, jobs := smallRun(t)
	counter := dessched.NewEventCounter()
	reg := dessched.NewMetricsRegistry()
	res, err := dessched.Simulate(cfg, jobs, dessched.NewDES(dessched.CDVFS),
		dessched.WithObserver(counter.Observe),
		dessched.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range counter.Counts {
		total += n
	}
	if total == 0 {
		t.Error("observer option saw no events")
	}
	snap := reg.Snapshot()
	var gotQuality bool
	for _, fam := range snap.Families {
		if fam.Name == "sim_norm_quality" {
			gotQuality = true
			if len(fam.Series) == 1 && math.Float64bits(fam.Series[0].Value) != math.Float64bits(res.NormQuality) {
				t.Errorf("telemetry quality %g != result %g", fam.Series[0].Value, res.NormQuality)
			}
		}
	}
	if !gotQuality {
		t.Error("telemetry option did not record the run result")
	}

	// Options must not perturb the simulation itself.
	plain, err := dessched.Simulate(cfg, jobs, dessched.NewDES(dessched.CDVFS))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(plain.Quality) != math.Float64bits(res.Quality) {
		t.Error("telemetry/observer options changed the simulation result")
	}
}

func TestWithContextCancels(t *testing.T) {
	cfg := dessched.PaperServer()
	cfg.Cores = 4
	cfg.Budget = 80
	wl := dessched.PaperWorkload(200)
	wl.Duration = 120
	jobs, err := dessched.GenerateWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = dessched.Simulate(cfg, jobs, dessched.NewDES(dessched.CDVFS),
		dessched.WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestWithChaosInjectsFaults(t *testing.T) {
	cfg, jobs := smallRun(t)
	cc := dessched.DefaultChaos(3, 5, cfg.Cores)
	cc.Bursts = 0
	plan, err := cc.Generate()
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := dessched.Simulate(cfg, jobs, dessched.NewDES(dessched.CDVFS),
		dessched.WithChaos(plan))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := dessched.Simulate(cfg, jobs, dessched.NewDES(dessched.CDVFS))
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Quality >= clean.Quality {
		t.Logf("chaos did not reduce quality (%.3f vs %.3f) — acceptable for a light plan", faulted.Quality, clean.Quality)
	}
}

func TestWithChaosRejectsBursts(t *testing.T) {
	cfg, jobs := smallRun(t)
	plan := dessched.ChaosPlan{Bursts: []dessched.Burst{{Start: 0, End: 1, Multiplier: 2}}}
	_, err := dessched.Simulate(cfg, jobs, dessched.NewDES(dessched.CDVFS),
		dessched.WithChaos(plan))
	if err == nil {
		t.Fatal("burst-carrying plan accepted")
	}
	if _, ok := dessched.AsConfigError(err); !ok {
		t.Errorf("burst rejection is not a typed ConfigError: %v", err)
	}
}

// TestTypedValidationErrors is the facade-boundary validation table: every
// malformed config must surface as a *ConfigError, never a panic or a
// silent NaN result.
func TestTypedValidationErrors(t *testing.T) {
	goodCfg, jobs := smallRun(t)
	des := func() dessched.Policy { return dessched.NewDES(dessched.CDVFS) }

	type errCase struct {
		name   string
		run    func() error
		domain string
		field  string
	}
	cases := []errCase{
		{"zero cores", func() error {
			cfg := goodCfg
			cfg.Cores = 0
			_, err := dessched.Simulate(cfg, jobs, des())
			return err
		}, "sim", "cores"},
		{"negative budget", func() error {
			cfg := goodCfg
			cfg.Budget = -10
			_, err := dessched.Simulate(cfg, jobs, des())
			return err
		}, "sim", "budget"},
		{"NaN budget", func() error {
			cfg := goodCfg
			cfg.Budget = math.NaN()
			_, err := dessched.Simulate(cfg, jobs, des())
			return err
		}, "sim", "budget"},
		{"infinite budget", func() error {
			cfg := goodCfg
			cfg.Budget = math.Inf(1)
			_, err := dessched.Simulate(cfg, jobs, des())
			return err
		}, "sim", "budget"},
		{"zero rate", func() error {
			wl := dessched.PaperWorkload(0)
			_, err := dessched.GenerateWorkload(wl)
			return err
		}, "workload", "rate"},
		{"NaN rate", func() error {
			wl := dessched.PaperWorkload(math.NaN())
			_, err := dessched.GenerateWorkload(wl)
			return err
		}, "workload", "rate"},
		{"NaN demand", func() error {
			cfg := goodCfg
			bad := []dessched.Job{{ID: 0, Release: 0, Deadline: 1, Demand: math.NaN()}}
			_, err := dessched.Simulate(cfg, bad, des())
			return err
		}, "job", "demand"},
		{"negative demand", func() error {
			cfg := goodCfg
			bad := []dessched.Job{{ID: 0, Release: 0, Deadline: 1, Demand: -5}}
			_, err := dessched.Simulate(cfg, bad, des())
			return err
		}, "job", "demand"},
		{"cluster no servers", func() error {
			_, err := dessched.SimulateCluster(dessched.ClusterConfig{Servers: 0, Server: goodCfg}, jobs)
			return err
		}, "cluster", "servers"},
		{"sweep NaN rate", func() error {
			_, err := dessched.RunSweep(context.Background(),
				dessched.SweepGrid{Rates: []float64{math.NaN()}}, dessched.SweepOptions{})
			return err
		}, "sweep", "rates"},
		{"infinite idle burn speed", func() error {
			cfg := goodCfg
			cfg.IdleBurnSpeed = math.Inf(1)
			_, err := dessched.Simulate(cfg, jobs, des())
			return err
		}, "sim", "idle_burn_speed"},
		{"infinite speed cap", func() error {
			cfg := goodCfg
			cfg.MaxSpeed = math.Inf(1)
			_, err := dessched.Simulate(cfg, jobs, des())
			return err
		}, "sim", "max_speed"},
	}
	// A power model with a non-finite parameter, or one that breaks the
	// paper's bounds, is rejected by Simulate and SimulateCluster alike.
	// NaN compares false against every bound, so without explicit checks
	// such a model ran to completion with zero quality and zero energy.
	for _, m := range []dessched.PowerModel{
		{A: math.NaN(), Beta: 2},
		{A: math.Inf(1), Beta: 2},
		{A: 5, Beta: math.NaN()},
		{A: 5, Beta: math.Inf(1)},
		{A: 5, Beta: 2, B: math.NaN()},
		{A: 5, Beta: 2, B: math.Inf(1)},
		{A: -1, Beta: 2},
		{A: 5, Beta: 1},
		{A: 5, Beta: 2, B: -1},
	} {
		cfg := goodCfg
		cfg.Power = m
		cases = append(cases,
			errCase{fmt.Sprintf("Simulate power %+v", m), func() error {
				_, err := dessched.Simulate(cfg, jobs, des())
				return err
			}, "sim", "power"},
			errCase{fmt.Sprintf("SimulateCluster power %+v", m), func() error {
				_, err := dessched.SimulateCluster(dessched.ClusterConfig{Servers: 2, Server: cfg}, jobs)
				return err
			}, "sim", "power"})
	}
	for _, tc := range cases {
		err := tc.run()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		ce, ok := dessched.AsConfigError(err)
		if !ok {
			t.Errorf("%s: %v is not a ConfigError", tc.name, err)
			continue
		}
		if ce.Domain != tc.domain || ce.Field != tc.field {
			t.Errorf("%s: got %s/%s, want %s/%s", tc.name, ce.Domain, ce.Field, tc.domain, tc.field)
		}
	}
}

func TestSimulateClusterFacade(t *testing.T) {
	cfg, jobs := smallRun(t)
	ccfg := dessched.ClusterConfig{
		Servers:      4,
		Server:       cfg,
		Dispatch:     dessched.DispatchRoundRobin,
		GlobalBudget: 0.75 * 4 * cfg.Budget,
	}
	res, err := dessched.SimulateCluster(ccfg, jobs, dessched.WithContext(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived != len(jobs) || len(res.PerServer) != 4 {
		t.Errorf("cluster facade lost work: %+v", res)
	}

	// Per-run hooks are meaningless at fleet scope and must be rejected.
	_, err = dessched.SimulateCluster(ccfg, jobs,
		dessched.WithTelemetry(dessched.NewMetricsRegistry()))
	if err == nil {
		t.Fatal("fleet run accepted a per-run telemetry option")
	}
	if _, ok := dessched.AsConfigError(err); !ok {
		t.Errorf("option rejection is not typed: %v", err)
	}
}

// TestSimulateClusterStreamFacade: the streaming exports — slice-backed
// sources, the streamed runner, and the snapshot encode/decode/resume
// loop — work end to end through the public facade and stay bit-identical
// to the batch path.
func TestSimulateClusterStreamFacade(t *testing.T) {
	cfg, jobs := smallRun(t)
	ccfg := dessched.ClusterConfig{
		Servers:      4,
		Server:       cfg,
		Dispatch:     dessched.DispatchRoundRobin,
		GlobalBudget: 0.75 * 4 * cfg.Budget,
	}
	batch, err := dessched.SimulateCluster(ccfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := dessched.SimulateClusterStream(ccfg, dessched.NewSliceJobSource(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(batch.Quality) != math.Float64bits(streamed.Quality) ||
		math.Float64bits(batch.Energy) != math.Float64bits(streamed.Energy) ||
		batch.Arrived != streamed.Arrived || batch.Completed != streamed.Completed {
		t.Errorf("streamed facade diverged from batch:\nbatch    %+v\nstreamed %+v", batch, streamed)
	}

	// Snapshot → encode → decode → resume, all through the facade.
	var blob []byte
	ckpt := ccfg
	ckpt.StreamCheckpoint = &dessched.ClusterStreamCheckpointConfig{
		Every: 2,
		Sink: func(s *dessched.ClusterStreamSnapshot) error {
			b, err := dessched.EncodeClusterStreamSnapshot(s)
			blob = b
			return err
		},
	}
	if _, err := dessched.SimulateClusterStream(ckpt, dessched.NewSliceJobSource(jobs)); err != nil {
		t.Fatal(err)
	}
	if len(blob) == 0 {
		t.Fatal("checkpoint sink never ran")
	}
	snap, err := dessched.DecodeClusterStreamSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := dessched.ResumeClusterStream(ccfg, dessched.NewSliceJobSource(jobs), snap)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(resumed.Quality) != math.Float64bits(batch.Quality) ||
		math.Float64bits(resumed.Energy) != math.Float64bits(batch.Energy) {
		t.Errorf("resumed facade run diverged: %+v vs %+v", resumed, batch)
	}

	// A generator-backed source through the facade drives the same fleet.
	wl := dessched.PaperWorkload(30)
	wl.Duration = 5
	src, err := dessched.NewWorkloadStream(wl)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := dessched.SimulateClusterStream(ccfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(gen.Quality) != math.Float64bits(batch.Quality) {
		t.Errorf("workload-stream source diverged: %v vs %v", gen.Quality, batch.Quality)
	}
}

func TestRunSweepFacade(t *testing.T) {
	grid := dessched.SweepGrid{
		Rates:    []float64{30},
		Cores:    []int{4},
		Budgets:  []float64{80},
		Policies: []string{"des"},
		Seeds:    []uint64{1},
		Duration: 5,
	}
	rep, err := dessched.RunSweep(context.Background(), grid, dessched.SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 || rep.Cells[0].Arrived == 0 {
		t.Errorf("sweep facade returned %+v", rep)
	}
}
