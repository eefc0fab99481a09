package main

import (
	"fmt"
	"os"

	"dessched"
)

// workload is one set of inputs the benchmark runs. setup builds one
// repeat's inputs from the seed — generate or compile the workload,
// validate the config, construct the policy and the source — and is timed
// as setup_s; the simulation that consumes them is timed as run_s.
type workload struct {
	name  string
	fleet bool
	setup func(o *options) (*inputs, error)
}

// inputs is everything one repeat consumes. Single-server workloads fill
// server, jobs and policy; fleet workloads fill cluster and source. A
// source is single-use, so every repeat builds its own.
type inputs struct {
	server dessched.ServerConfig
	jobs   []dessched.Job
	policy dessched.Policy

	cluster dessched.ClusterConfig
	source  dessched.JobSource
}

// scale picks the full or the -smoke size of a workload dimension.
func scale[T any](o *options, full, smoke T) T {
	if o.smoke {
		return smoke
	}
	return full
}

// workloads are the benchmark's inputs; README.md records why each exists
// and which layers it should stress.
var workloads = []workload{
	// The paper's server under the paper's heavy load: the budget binds at
	// almost every invocation, so Energy-OPT requests, water-filling and
	// Online-QE do the work.
	{name: "paper-heavy", setup: paperSetup(200, 150)},
	// The same server under light load: the budget-free schedules fit, DES
	// takes the step-2 exit, and water-filling and Online-QE barely run.
	// The engine and yds.SameReleaseInto dominate.
	{name: "paper-light", setup: paperSetup(60, 200)},
	// The streamed fleet at 1,024 servers: source, ingest, budget fill,
	// parallel advance and barrier, in bounded memory.
	{name: "fleet-paper", fleet: true, setup: fleetPaperSetup},
	// A smaller fleet on the classed bimodal spec with everything the
	// fleet layer offers switched on: priority queueing and admission,
	// chaos faults, retry and hedging.
	{name: "fleet-mixed-chaos", fleet: true, setup: fleetMixedSetup},
}

func workloadNamed(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// paperSetup is the paper's 16-core, 320 W server under C-DVFS DES on the
// paper's request stream at rate req/s.
func paperSetup(rate, horizon float64) func(o *options) (*inputs, error) {
	return func(o *options) (*inputs, error) {
		cfg := dessched.PaperServer()
		dessched.ApplyArch(&cfg, dessched.CDVFS)
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		wl := dessched.PaperWorkload(rate)
		wl.Duration = scale(o, horizon, 5.0)
		wl.Seed = o.seed
		jobs, err := dessched.GenerateWorkload(wl)
		if err != nil {
			return nil, err
		}
		return &inputs{server: cfg, jobs: jobs, policy: dessched.NewDES(dessched.CDVFS)}, nil
	}
}

// fleetServer is the fleet's per-server template: the paper's server cut
// to 4 cores and 80 W.
func fleetServer() dessched.ServerConfig {
	cfg := dessched.PaperServer()
	cfg.Cores = 4
	cfg.Budget = 80
	dessched.ApplyArch(&cfg, dessched.CDVFS)
	return cfg
}

// fleetPaperSetup streams the paper's request stream at 60 req/s per
// server into 1,024 servers behind round-robin dispatch, water-filling 85%
// of the summed nominal budgets.
func fleetPaperSetup(o *options) (*inputs, error) {
	servers := scale(o, 1024, 16)
	cfg := dessched.ClusterConfig{
		Servers:      servers,
		Server:       fleetServer(),
		Policy:       "des",
		Dispatch:     dessched.DispatchRoundRobin,
		GlobalBudget: 0.85 * float64(servers) * 80,
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	wl := dessched.PaperWorkload(60 * float64(servers))
	wl.Duration = scale(o, 4.0, 2.0)
	wl.Seed = o.seed
	src, err := dessched.NewWorkloadStream(wl)
	if err != nil {
		return nil, err
	}
	return &inputs{cluster: cfg, source: src}, nil
}

// bimodalSpec is the repository's example two-class workload, scaled by
// fleetMixedSetup to the fleet's size. Like BENCHMARK.json it is read
// relative to the repository root, where the benchmark runs.
const bimodalSpec = "examples/workloads/bimodal.json"

// fleetMixedSetup streams the bimodal spec, scaled to 40 req/s per server,
// into 256 servers with prio-sjf queueing, priority admission, seeded chaos
// faults, retry and hedged dispatch under a 75% global budget.
func fleetMixedSetup(o *options) (*inputs, error) {
	servers := scale(o, 256, 16)
	horizon := scale(o, 8.0, 3.0)
	raw, err := os.ReadFile(bimodalSpec)
	if err != nil {
		return nil, err
	}
	spec, err := dessched.DecodeWorkloadSpec(raw)
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, c := range spec.Classes {
		total += c.Rate
	}
	k := 40 * float64(servers) / total
	for i := range spec.Classes {
		c := &spec.Classes[i]
		c.Rate *= k
		for p := range c.Periods {
			c.Periods[p].Rate *= k
		}
	}
	spec.Duration = horizon
	spec.Seed = o.seed
	if err := spec.Validate(); err != nil {
		return nil, err
	}

	server := fleetServer()
	if server.ClassQuality, err = dessched.WorkloadQualityByClass(spec); err != nil {
		return nil, err
	}
	server.ClassPriority = dessched.WorkloadPriorityByClass(spec)
	server.QueueOrder = dessched.OrderPrioSJF
	server.Admission = dessched.AdmissionConfig{Policy: dessched.AdmissionPriority, MaxQueue: 4}
	server.Retry = dessched.RetryPolicy{MaxAttempts: 2, Backoff: 0.25}
	faults, err := dessched.ClusterChaosFaults(o.seed, horizon, servers, server.Cores)
	if err != nil {
		return nil, err
	}
	cfg := dessched.ClusterConfig{
		Servers:      servers,
		Server:       server,
		Policy:       "des",
		Dispatch:     dessched.DispatchRoundRobin,
		GlobalBudget: 0.75 * float64(servers) * 80,
		Faults:       faults,
		Hedge:        dessched.HedgeConfig{Window: 0.5, Limit: 16384},
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src, err := dessched.NewWorkloadSpecStream(spec)
	if err != nil {
		return nil, err
	}
	return &inputs{cluster: cfg, source: src}, nil
}
