package sim_test

import (
	"math"
	"testing"

	"dessched/internal/admission"
	"dessched/internal/core"
	"dessched/internal/job"
	"dessched/internal/power"
	"dessched/internal/sim"
	"dessched/internal/trace"
	"dessched/internal/workload"
	"dessched/internal/yds"
)

// chaoticConfig is a faulty, admission-controlled setup driving the real
// DES policy, used to pin down observer determinism.
func chaoticConfig() sim.Config {
	cfg := sim.PaperConfig()
	cfg.Cores = 4
	cfg.Budget = 80
	cfg.Faults = []sim.Fault{
		{Core: 0, Start: 0.3, End: 0.8, SpeedFactor: 0.4},
		{Core: 3, Start: 0.6, End: 1.2, SpeedFactor: 0}, // outage
	}
	cfg.BudgetFaults = []sim.BudgetFault{{Start: 1.0, End: 1.6, Fraction: 0.6}}
	// The counter trigger drains the queue at 8 waiting jobs, so the
	// admission limit must sit below that to ever trip.
	cfg.Admission = admission.Config{Policy: admission.QualityAware, MaxQueue: 5}
	return cfg
}

// The observer event stream of a seeded run must be exactly reproducible:
// same seed, same faults, same admission policy → identical event
// sequences (kind, job, core, time, queue depth, quality), in order.
func TestObserverDeterministicPerSeed(t *testing.T) {
	capture := func() []sim.Event {
		cfg := chaoticConfig()
		var events []sim.Event
		cfg.Observer = func(e sim.Event) { events = append(events, e) }
		wl := workload.DefaultConfig(200)
		wl.Duration = 2
		wl.Seed = 11
		jobs, err := workload.Generate(wl)
		if err != nil {
			t.Fatal(err)
		}
		core.ApplyArch(&cfg, core.CDVFS)
		if _, err := sim.Run(cfg, jobs, core.New(core.CDVFS)); err != nil {
			t.Fatal(err)
		}
		return events
	}
	a, b := capture(), capture()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("no events observed")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// The run actually exercised the interesting paths.
	kinds := map[sim.EventKind]int{}
	for _, e := range a {
		kinds[e.Kind]++
	}
	if kinds[sim.EvShed] == 0 {
		t.Error("no shed events — admission control never tripped")
	}
	if kinds[sim.EvFaultEdge] != 6 {
		t.Errorf("fault edges = %d, want 6", kinds[sim.EvFaultEdge])
	}
	if kinds[sim.EvRequeue] == 0 {
		t.Error("no requeue events — the outage never evacuated jobs")
	}
}

// EventCounter.Reset makes one counter reusable across sequential runs:
// after a reset, a re-run of the same seed reproduces the same tallies.
func TestEventCounterResetReuse(t *testing.T) {
	counter := sim.NewEventCounter()
	runOnce := func() {
		cfg := chaoticConfig()
		cfg.Observer = counter.Observe
		wl := workload.DefaultConfig(150)
		wl.Duration = 1
		wl.Seed = 3
		jobs, err := workload.Generate(wl)
		if err != nil {
			t.Fatal(err)
		}
		core.ApplyArch(&cfg, core.CDVFS)
		if _, err := sim.Run(cfg, jobs, core.New(core.CDVFS)); err != nil {
			t.Fatal(err)
		}
	}
	runOnce()
	first := make(map[sim.EventKind]int, len(counter.Counts))
	for k, v := range counter.Counts {
		first[k] = v
	}
	if len(first) == 0 {
		t.Fatal("counter saw nothing")
	}
	counter.Reset()
	if len(counter.Counts) != 0 {
		t.Fatalf("Reset left %v", counter.Counts)
	}
	runOnce()
	if len(counter.Counts) != len(first) {
		t.Fatalf("kinds after reuse: %v, want %v", counter.Counts, first)
	}
	for k, v := range first {
		if counter.Counts[k] != v {
			t.Errorf("%v = %d after reuse, want %d", k, counter.Counts[k], v)
		}
	}
}

// goldenScenario is one configuration under which the optimized DES engine
// must reproduce the naive reference engine bit for bit.
type goldenScenario struct {
	name   string
	cfg    func() sim.Config
	arch   core.Arch
	policy func(core.Arch) *core.DES
	rate   float64 // arrival rate of the workload, req/s

	// minJobless is the fewest plans for cores with no job the optimized
	// run must make on each path, so the scenario keeps covering the
	// planning the optimized path skips for them.
	minJobless joblessCount
}

// joblessCount tallies per-core plans made for cores with no job: on
// invocations that take the step-2 exit, on budget-bound ones, and (of
// either) on cores in an outage.
type joblessCount struct{ exit, bound, dark int }

// joblessProbe wraps DES and counts the plans it makes for cores with no
// job. It classifies each invocation as DES does on continuous, uncapped
// C-DVFS: the step-2 exit when the cores' budget-free requests fit the
// budget, budget-bound otherwise.
type joblessProbe struct {
	*core.DES
	got   joblessCount
	ready [][]job.Ready
	queue []*sim.JobState
	tasks []yds.Task
}

func (p *joblessProbe) Plan(now float64, s *sim.State) {
	if len(p.ready) != len(s.Cores) {
		p.ready = make([][]job.Ready, len(s.Cores))
	}
	for i, c := range s.Cores {
		p.ready[i] = c.AppendReadyJobs(p.ready[i], now)
	}
	p.queue = append(p.queue[:0], s.Queue()...)
	p.DES.Plan(now, s)
	for _, js := range p.queue { // where C-RR bound the waiting jobs
		if js.Core >= 0 {
			p.ready[js.Core] = append(p.ready[js.Core], job.Ready{Job: js.Job, Done: js.Done})
		}
	}
	jobless, total := 0, 0.0
	for i := range s.Cores {
		if len(p.ready[i]) == 0 {
			jobless++
			if s.CoreFaultFactor(i) == 0 {
				p.got.dark++
			}
			continue
		}
		tasks := p.tasks[:0]
		for _, r := range p.ready[i] {
			if r.Deadline > now && r.Remaining() > 0 {
				tasks = append(tasks, yds.Task{ID: r.ID, Release: now, Deadline: r.Deadline, Volume: r.Remaining()})
			}
		}
		p.tasks = tasks
		speed, err := yds.SameReleaseRequest(now, tasks, nil)
		if err != nil {
			panic(err)
		}
		total += s.Cfg.Power.DynamicPower(speed)
	}
	if total <= s.Budget() {
		p.got.exit += jobless
	} else {
		p.got.bound += jobless
	}
}

func goldenScenarios() []goldenScenario {
	std := core.New
	paper := func(cores int, budget float64) func() sim.Config {
		return func() sim.Config {
			cfg := sim.PaperConfig()
			cfg.Cores = cores
			cfg.Budget = budget
			return cfg
		}
	}
	return []goldenScenario{
		{name: "chaotic-admission-cdvfs", cfg: chaoticConfig, arch: core.CDVFS, policy: std, rate: 200},
		{name: "continuous-cdvfs", cfg: paper(4, 60), arch: core.CDVFS, policy: std, rate: 200},
		{name: "discrete-cdvfs", cfg: func() sim.Config {
			cfg := paper(4, 60)()
			cfg.Ladder = power.DefaultLadder
			return cfg
		}, arch: core.CDVFS, policy: std, rate: 200},
		{name: "two-speed-discrete-cdvfs", cfg: func() sim.Config {
			cfg := paper(4, 60)()
			cfg.Ladder = power.OpteronLadder
			cfg.Power = power.Opteron
			cfg.TwoSpeedDiscrete = true
			return cfg
		}, arch: core.CDVFS, policy: std, rate: 200},
		{name: "maxspeed-cdvfs", cfg: func() sim.Config {
			cfg := paper(4, 60)()
			cfg.MaxSpeed = 2.2
			return cfg
		}, arch: core.CDVFS, policy: std, rate: 200},
		{name: "sdvfs", cfg: paper(4, 60), arch: core.SDVFS, policy: std, rate: 200},
		{name: "nodvfs", cfg: paper(4, 60), arch: core.NoDVFS, policy: std, rate: 200},
		{name: "static-power-cdvfs", cfg: paper(4, 60), arch: core.CDVFS, policy: core.NewStaticPower, rate: 200},
		{name: "plain-rr-cdvfs", cfg: paper(4, 60), arch: core.CDVFS, policy: core.NewPlainRR, rate: 200},
		// The paper server at a light load: the step-2 exit runs with
		// most cores jobless.
		{name: "light-16core-cdvfs", cfg: paper(16, 320), arch: core.CDVFS, policy: std, rate: 60,
			minJobless: joblessCount{exit: 1}},
		// A budget too small for two busy cores: budget-bound invocations
		// that leave cores jobless, so Online-QE is skipped for them.
		{name: "budget-bound-jobless-cdvfs", cfg: paper(8, 10), arch: core.CDVFS, policy: std, rate: 40,
			minJobless: joblessCount{bound: 1}},
		// An outage evacuates core 2, which stays jobless until it ends.
		{name: "outage-empties-core-cdvfs", cfg: func() sim.Config {
			cfg := paper(4, 60)()
			cfg.Faults = []sim.Fault{{Core: 2, Start: 0.4, End: 1.4, SpeedFactor: 0}}
			return cfg
		}, arch: core.CDVFS, policy: std, rate: 100, minJobless: joblessCount{dark: 1}},
	}
}

// goldenRun executes one scenario and returns everything observable about
// the run: the result, the full execution trace, and the observer stream,
// with the count of plans made for jobless cores.
func goldenRun(t *testing.T, sc goldenScenario, naive bool) (sim.Result, *trace.Trace, []sim.Event, joblessCount) {
	t.Helper()
	cfg := sc.cfg()
	core.ApplyArch(&cfg, sc.arch)
	tr := trace.New(cfg.Cores)
	cfg.Recorder = tr
	var events []sim.Event
	cfg.Observer = func(e sim.Event) { events = append(events, e) }
	cfg.CollectJobs = true

	wl := workload.DefaultConfig(sc.rate)
	wl.Duration = 2
	wl.Seed = 11
	jobs, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	pol := sc.policy(sc.arch)
	if naive {
		pol.Naive()
	}
	probe := &joblessProbe{DES: pol}
	res, err := sim.Run(cfg, jobs, probe)
	if err != nil {
		t.Fatal(err)
	}
	return res, tr, events, probe.got
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// The optimized DES planning path (request-only YDS, memoized water-filling,
// recycled planner scratch, table-driven power lookups, no planning for
// jobless cores) must be a pure performance change: across every
// architecture, ladder shape, ablation, the chaotic fault/admission
// scenario, and loads that leave cores jobless on both DES paths and in an
// outage, its schedules, observer stream, per-job outcomes, quality, and
// energy are byte-identical to the naive reference engine's.
func TestOptimizedMatchesNaiveGolden(t *testing.T) {
	for _, sc := range goldenScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			optRes, optTr, optEv, jobless := goldenRun(t, sc, false)
			refRes, refTr, refEv, _ := goldenRun(t, sc, true)
			t.Logf("jobless plans: %+v", jobless)
			if want := sc.minJobless; jobless.exit < want.exit || jobless.bound < want.bound || jobless.dark < want.dark {
				t.Errorf("jobless plans %+v, want at least %+v", jobless, want)
			}

			if !bitsEqual(optRes.Quality, refRes.Quality) {
				t.Errorf("Quality %v != naive %v", optRes.Quality, refRes.Quality)
			}
			if !bitsEqual(optRes.Energy, refRes.Energy) {
				t.Errorf("Energy %v != naive %v", optRes.Energy, refRes.Energy)
			}
			if !bitsEqual(optRes.IdleEnergy, refRes.IdleEnergy) {
				t.Errorf("IdleEnergy %v != naive %v", optRes.IdleEnergy, refRes.IdleEnergy)
			}
			if !bitsEqual(optRes.PeakPower, refRes.PeakPower) {
				t.Errorf("PeakPower %v != naive %v", optRes.PeakPower, refRes.PeakPower)
			}
			counts := [][2]int{
				{optRes.Arrived, refRes.Arrived},
				{optRes.Completed, refRes.Completed},
				{optRes.Deadlined, refRes.Deadlined},
				{optRes.Discarded, refRes.Discarded},
				{optRes.Shed, refRes.Shed},
				{optRes.Requeued, refRes.Requeued},
				{optRes.Invocation, refRes.Invocation},
				{optRes.Events, refRes.Events},
				{optRes.BudgetViolations, refRes.BudgetViolations},
			}
			names := []string{"Arrived", "Completed", "Deadlined", "Discarded",
				"Shed", "Requeued", "Invocation", "Events", "BudgetViolations"}
			for i, c := range counts {
				if c[0] != c[1] {
					t.Errorf("%s = %d, naive %d", names[i], c[0], c[1])
				}
			}

			if len(optRes.Jobs) != len(refRes.Jobs) {
				t.Fatalf("job outcomes: %d vs naive %d", len(optRes.Jobs), len(refRes.Jobs))
			}
			for i := range optRes.Jobs {
				if optRes.Jobs[i] != refRes.Jobs[i] {
					t.Fatalf("job outcome %d differs: %+v vs naive %+v", i, optRes.Jobs[i], refRes.Jobs[i])
				}
			}

			if len(optTr.Entries) != len(refTr.Entries) {
				t.Fatalf("trace entries: %d vs naive %d", len(optTr.Entries), len(refTr.Entries))
			}
			for i := range optTr.Entries {
				a, b := optTr.Entries[i], refTr.Entries[i]
				if a.Core != b.Core || a.JobID != b.JobID ||
					!bitsEqual(a.Start, b.Start) || !bitsEqual(a.End, b.End) ||
					!bitsEqual(a.Speed, b.Speed) {
					t.Fatalf("trace entry %d differs: %+v vs naive %+v", i, a, b)
				}
			}

			if len(optEv) != len(refEv) {
				t.Fatalf("observer events: %d vs naive %d", len(optEv), len(refEv))
			}
			for i := range optEv {
				if optEv[i] != refEv[i] {
					t.Fatalf("observer event %d differs: %+v vs naive %+v", i, optEv[i], refEv[i])
				}
			}

			if len(optTr.Entries) == 0 {
				t.Error("scenario produced an empty trace — not exercising the engine")
			}
		})
	}
}
