package cluster

import (
	"context"
	"errors"
	"math"
	"testing"

	"dessched/internal/cfgerr"
	"dessched/internal/job"
	"dessched/internal/sim"
	"dessched/internal/workload"
)

func testConfig(servers int) Config {
	server := sim.PaperConfig()
	server.Cores = 4
	server.Budget = 80
	return Config{
		Servers: servers,
		Server:  server,
		Policy:  "des",
	}
}

// routeAll runs a release-sorted job slice through a fresh dispatcher,
// returning each job's server and reroute flag.
func routeAll(d Dispatch, servers, cores int, outages [][][]interval, classes []string, jobs []job.Job) (assign []int, rerouted []bool) {
	dp := newDispatcher(d, servers, cores, outages, classes)
	for _, j := range jobs {
		s, moved := dp.route(j)
		assign = append(assign, s)
		rerouted = append(rerouted, moved)
	}
	return assign, rerouted
}

func testJobs(t *testing.T, rate, duration float64) []job.Job {
	t.Helper()
	wl := workload.DefaultConfig(rate)
	wl.Duration = duration
	jobs, err := workload.Generate(wl)
	if err != nil {
		t.Fatalf("generate workload: %v", err)
	}
	return jobs
}

// exactlyEqual compares two cluster results bit for bit, including every
// per-server sub-result.
func exactlyEqual(t *testing.T, a, b Result, label string) {
	t.Helper()
	bits := func(x float64) uint64 { return math.Float64bits(x) }
	type pair struct {
		name string
		a, b float64
	}
	check := func(ps []pair) {
		for _, p := range ps {
			if bits(p.a) != bits(p.b) {
				t.Errorf("%s: %s differs: %v (%#x) vs %v (%#x)",
					label, p.name, p.a, bits(p.a), p.b, bits(p.b))
			}
		}
	}
	check([]pair{
		{"Quality", a.Quality, b.Quality},
		{"MaxQuality", a.MaxQuality, b.MaxQuality},
		{"NormQuality", a.NormQuality, b.NormQuality},
		{"Energy", a.Energy, b.Energy},
		{"PeakPowerSum", a.PeakPowerSum, b.PeakPowerSum},
		{"Span", a.Span, b.Span},
	})
	if a.Arrived != b.Arrived || a.Completed != b.Completed || a.Deadlined != b.Deadlined ||
		a.Events != b.Events || a.Invocation != b.Invocation {
		t.Errorf("%s: counters differ: %+v vs %+v", label, a, b)
	}
	if len(a.PerServer) != len(b.PerServer) {
		t.Fatalf("%s: per-server lengths differ: %d vs %d", label, len(a.PerServer), len(b.PerServer))
	}
	for i := range a.PerServer {
		sa, sb := a.PerServer[i], b.PerServer[i]
		if sa.Jobs != sb.Jobs {
			t.Errorf("%s: server %d job count differs: %d vs %d", label, i, sa.Jobs, sb.Jobs)
		}
		check([]pair{
			{"server.BudgetShareW", sa.BudgetShareW, sb.BudgetShareW},
			{"server.Quality", sa.Result.Quality, sb.Result.Quality},
			{"server.Energy", sa.Result.Energy, sb.Result.Energy},
		})
	}
}

// TestDeterministicAcrossWorkers is the tentpole guarantee: a cluster run
// is bit-identical no matter how many workers execute the per-server
// simulations.
func TestDeterministicAcrossWorkers(t *testing.T) {
	jobs := testJobs(t, 240, 60)
	for _, dispatch := range []Dispatch{RoundRobin, LeastLoaded, Hash} {
		cfg := testConfig(8)
		cfg.Dispatch = dispatch
		cfg.GlobalBudget = 0.7 * float64(cfg.Servers) * cfg.Server.Budget

		var base Result
		for i, workers := range []int{1, 4, 16} {
			cfg.Workers = workers
			res, err := Run(cfg, jobs)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", dispatch, workers, err)
			}
			if i == 0 {
				base = res
				if res.Arrived != len(jobs) {
					t.Fatalf("%v: arrived %d jobs, dispatched %d", dispatch, res.Arrived, len(jobs))
				}
				continue
			}
			exactlyEqual(t, base, res, dispatch.String())
		}
	}
}

// TestSingleServerParity: a one-server cluster with no global budget is
// exactly the single-server engine.
func TestSingleServerParity(t *testing.T) {
	jobs := testJobs(t, 60, 60)
	cfg := testConfig(1)
	got, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}

	spec, err := ParsePolicy(cfg.Policy)
	if err != nil {
		t.Fatal(err)
	}
	server := cfg.Server
	spec.Configure(&server)
	want, err := sim.Run(server, jobs, spec.New())
	if err != nil {
		t.Fatal(err)
	}

	if math.Float64bits(got.Quality) != math.Float64bits(want.Quality) ||
		math.Float64bits(got.Energy) != math.Float64bits(want.Energy) ||
		got.Completed != want.Completed || got.Events != want.Events {
		t.Errorf("cluster(M=1) diverged from sim.Run: %+v vs %+v", got, want)
	}
	if got.PerServer[0].BudgetShareW != cfg.Server.Budget {
		t.Errorf("no-hierarchy share = %g, want nominal %g", got.PerServer[0].BudgetShareW, cfg.Server.Budget)
	}
}

// TestOutageReroutesAndReflows: a full-horizon outage on one server must
// (a) route all of its would-be arrivals to healthy servers and (b) hand
// its global-budget share to them.
func TestOutageReroutesAndReflows(t *testing.T) {
	jobs := testJobs(t, 120, 60)
	cfg := testConfig(4)
	cfg.Dispatch = RoundRobin
	// Scarce global budget so shares are demand-driven.
	cfg.GlobalBudget = 0.6 * float64(cfg.Servers) * cfg.Server.Budget

	healthy, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}

	// Outage server 2 completely: every core dark for the whole horizon.
	down := 2
	faults := make([][]sim.Fault, cfg.Servers)
	for c := 0; c < cfg.Server.Cores; c++ {
		faults[down] = append(faults[down], sim.Fault{Core: c, Start: 0, End: 1e9, SpeedFactor: 0})
	}
	cfg.Faults = faults
	degraded, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}

	if got := degraded.PerServer[down].Jobs; got != 0 {
		t.Errorf("outaged server still received %d jobs", got)
	}
	if degraded.Arrived != len(jobs) {
		t.Errorf("lost jobs in reroute: arrived %d, want %d", degraded.Arrived, len(jobs))
	}
	if share := degraded.PerServer[down].BudgetShareW; share != 0 {
		t.Errorf("outaged server still holds %g W of the global budget", share)
	}
	// The released share must reflow: healthy servers now absorb more load,
	// so their time-averaged budgets must not shrink, and at least one must
	// strictly grow.
	grew := false
	for s := 0; s < cfg.Servers; s++ {
		if s == down {
			continue
		}
		h, d := healthy.PerServer[s].BudgetShareW, degraded.PerServer[s].BudgetShareW
		if d < h-1e-9 {
			t.Errorf("server %d share shrank under reflow: %g -> %g W", s, h, d)
		}
		if d > h+1e-9 {
			grew = true
		}
	}
	if !grew {
		t.Error("no healthy server's budget share grew after the outage reflow")
	}
	// Rerouted jobs must land on the three healthy servers.
	total := 0
	for s, sr := range degraded.PerServer {
		if s != down {
			total += sr.Jobs
		}
	}
	if total != len(jobs) {
		t.Errorf("healthy servers hold %d jobs, want all %d", total, len(jobs))
	}
}

// TestChaosFaultsDeterministic: same seed, same schedules; different
// servers draw different schedules.
func TestChaosFaultsDeterministic(t *testing.T) {
	a, err := ChaosFaults(42, 120, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChaosFaults(42, 120, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for s := range a {
		if len(a[s]) != len(b[s]) {
			t.Fatalf("server %d: schedule lengths differ across identical calls", s)
		}
		for i := range a[s] {
			if a[s][i] != b[s][i] {
				t.Errorf("server %d fault %d differs: %+v vs %+v", s, i, a[s][i], b[s][i])
			}
		}
	}
}

// TestClusterUnderChaos: a chaos-faulted cluster run must stay
// deterministic across worker counts and not lose jobs.
func TestClusterUnderChaos(t *testing.T) {
	jobs := testJobs(t, 120, 60)
	cfg := testConfig(4)
	cfg.GlobalBudget = 0.75 * float64(cfg.Servers) * cfg.Server.Budget
	faults, err := ChaosFaults(7, 60, cfg.Servers, cfg.Server.Cores)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = faults

	cfg.Workers = 1
	a, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	b, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	exactlyEqual(t, a, b, "chaos")
	if a.Arrived != len(jobs) {
		t.Errorf("arrived %d, want %d", a.Arrived, len(jobs))
	}
}

func TestValidateRejects(t *testing.T) {
	jobs := testJobs(t, 30, 10)
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"no servers", func(c *Config) { c.Servers = 0 }},
		{"bad server cores", func(c *Config) { c.Server.Cores = 0 }},
		{"NaN global budget", func(c *Config) { c.GlobalBudget = math.NaN() }},
		{"negative epoch", func(c *Config) { c.Epoch = -1 }},
		{"template faults", func(c *Config) {
			c.Server.Faults = []sim.Fault{{Core: 0, Start: 0, End: 1, SpeedFactor: 0}}
		}},
		{"fault length mismatch", func(c *Config) { c.Faults = make([][]sim.Fault, 2) }},
		{"unknown policy", func(c *Config) { c.Policy = "banana" }},
	}
	for _, tc := range cases {
		cfg := testConfig(4)
		tc.mod(&cfg)
		if _, err := Run(cfg, jobs); err == nil {
			t.Errorf("%s: Run accepted invalid config", tc.name)
		}
	}
}

func TestParseDispatch(t *testing.T) {
	for in, want := range map[string]Dispatch{
		"": RoundRobin, "rr": RoundRobin, "Round-Robin": RoundRobin,
		"ll": LeastLoaded, "least-loaded": LeastLoaded,
		"hash": Hash,
	} {
		got, err := ParseDispatch(in)
		if err != nil || got != want {
			t.Errorf("ParseDispatch(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseDispatch("nope"); err == nil {
		t.Error("ParseDispatch accepted garbage")
	}
}

func TestDispatchRoundRobinCumulative(t *testing.T) {
	jobs := []job.Job{
		{ID: 0, Release: 0, Deadline: 1, Demand: 1},
		{ID: 1, Release: 0.1, Deadline: 1.1, Demand: 1},
		{ID: 2, Release: 0.2, Deadline: 1.2, Demand: 1},
		{ID: 3, Release: 0.3, Deadline: 1.3, Demand: 1},
	}
	assign, _ := routeAll(RoundRobin, 3, 1, make([][][]interval, 3), nil, jobs)
	want := []int{0, 1, 2, 0}
	for i := range want {
		if assign[i] != want[i] {
			t.Errorf("job %d -> server %d, want %d", i, assign[i], want[i])
		}
	}
}

func TestDispatchSkipsDownServers(t *testing.T) {
	jobs := []job.Job{
		{ID: 0, Release: 0.5, Deadline: 1.5, Demand: 1},
		{ID: 1, Release: 0.6, Deadline: 1.6, Demand: 1},
	}
	outages := make([][][]interval, 2)
	outages[0] = [][]interval{{{start: 0, end: 2}}} // server 0: 1 core, dark
	assign, _ := routeAll(RoundRobin, 2, 1, outages, nil, jobs)
	for i, s := range assign {
		if s != 1 {
			t.Errorf("job %d routed to down server (got %d)", i, s)
		}
	}
}

func TestDispatchLeastLoadedBalancesDemand(t *testing.T) {
	// One heavy job then two light ones: LL must send the light jobs to
	// the other server while the heavy one is outstanding.
	jobs := []job.Job{
		{ID: 0, Release: 0, Deadline: 10, Demand: 100},
		{ID: 1, Release: 0.1, Deadline: 10.1, Demand: 1},
		{ID: 2, Release: 0.2, Deadline: 10.2, Demand: 1},
	}
	assign, _ := routeAll(LeastLoaded, 2, 1, make([][][]interval, 2), nil, jobs)
	if assign[0] != 0 {
		t.Fatalf("first job -> server %d, want 0 (tie breaks low)", assign[0])
	}
	if assign[1] != 1 || assign[2] != 1 {
		t.Errorf("light jobs -> servers %d,%d; want both on 1", assign[1], assign[2])
	}
}

func TestDispatchHashSticky(t *testing.T) {
	jobs := []job.Job{
		{ID: 77, Release: 0, Deadline: 1, Demand: 1},
		{ID: 77, Release: 5, Deadline: 6, Demand: 1},
	}
	assign, _ := routeAll(Hash, 8, 1, make([][][]interval, 8), nil, jobs)
	if assign[0] != assign[1] {
		t.Errorf("same ID hashed to different servers: %d vs %d", assign[0], assign[1])
	}
}

// budgetRun runs jobs with executed-schedule traces on, so the result
// carries every server's merged budget windows.
func budgetRun(t *testing.T, cfg Config, jobs []job.Job) Result {
	t.Helper()
	cfg.Instrument = &Instrument{Traces: true}
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BudgetWindows) != cfg.Servers {
		t.Fatalf("%d budget-window lists for %d servers", len(res.BudgetWindows), cfg.Servers)
	}
	return res
}

func TestEpochBudgetsAmpleBudgetNoWindows(t *testing.T) {
	// Global budget covers every server's nominal: no throttling windows.
	cfg := testConfig(3)
	cfg.GlobalBudget = 3 * 80
	res := budgetRun(t, cfg, testJobs(t, 30, 10))
	for s, ws := range res.BudgetWindows {
		if len(ws) != 0 {
			t.Errorf("server %d got %d throttle windows under ample budget", s, len(ws))
		}
		if share := res.PerServer[s].BudgetShareW; math.Abs(share-80) > 1e-9 {
			t.Errorf("server %d share = %g, want 80", s, share)
		}
	}
}

func TestEpochBudgetsScarceBudgetThrottles(t *testing.T) {
	// Half the fleet's nominal: everyone must be throttled below 1.
	cfg := testConfig(4)
	cfg.GlobalBudget = 0.5 * 4 * 80
	res := budgetRun(t, cfg, testJobs(t, 60, 10))
	sum := 0.0
	for s, ws := range res.BudgetWindows {
		sum += res.PerServer[s].BudgetShareW
		if len(ws) == 0 {
			t.Errorf("server %d unthrottled under 50%% budget", s)
		}
		for _, w := range ws {
			if w.Fraction >= 1 || w.Fraction < 0 {
				t.Errorf("server %d window fraction %g out of range", s, w.Fraction)
			}
		}
	}
	if sum > cfg.GlobalBudget+1e-6 {
		t.Errorf("assigned %g W total, global budget is %g W", sum, cfg.GlobalBudget)
	}
}

func TestEpochBudgetsFollowDemand(t *testing.T) {
	// Server 0 owns the only busy class, server 1 idles; the scarce global
	// budget must tilt toward the busy server.
	cfg := testConfig(2)
	cfg.GlobalBudget = 0.6 * 2 * 80
	cfg.Dispatch = ByClass
	cfg.Classes = []string{"busy", "idle"}
	var jobs []job.Job
	for i := 0; i < 200; i++ {
		jobs = append(jobs, job.Job{
			ID: job.ID(i), Release: float64(i) * 0.05, Deadline: float64(i)*0.05 + 1, Demand: 400, Class: "busy",
		})
	}
	res := budgetRun(t, cfg, jobs)
	if busy, idle := res.PerServer[0].BudgetShareW, res.PerServer[1].BudgetShareW; busy <= idle {
		t.Errorf("busy server got %g W, idle server %g W; want busy > idle", busy, idle)
	}
	if len(res.BudgetWindows[1]) == 0 {
		t.Error("idle server kept its full budget under a scarce global budget")
	}
}

func TestEpochBudgetsOutageReleasesShare(t *testing.T) {
	cfg := testConfig(2)
	cfg.Server.Cores = 2
	cfg.GlobalBudget = 80
	cfg.Faults = [][]sim.Fault{nil, {
		{Core: 0, Start: 0, End: 20, SpeedFactor: 0},
		{Core: 1, Start: 0, End: 20, SpeedFactor: 0},
	}}
	res := budgetRun(t, cfg, testJobs(t, 20, 10))
	if share := res.PerServer[1].BudgetShareW; share != 0 {
		t.Errorf("fully outaged server holds %g W", share)
	}
	if w := res.BudgetWindows[1]; len(w) != 1 || w[0].Fraction != 0 {
		t.Errorf("fully outaged server's budget windows %+v, want one zero-fraction window", w)
	}
	if share := res.PerServer[0].BudgetShareW; math.Abs(share-80) > 1e-9 {
		t.Errorf("healthy server share = %g, want the full 80 W", share)
	}
}

func TestMergeIntervals(t *testing.T) {
	got := mergeIntervals([]interval{{5, 7}, {1, 3}, {2, 4}, {8, 9}})
	want := []interval{{1, 4}, {5, 7}, {8, 9}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("interval %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// tinyEpochJobs is the runaway shape: a handful of jobs spread over
// seconds, dispatched in microsecond epochs with no global budget.
func tinyEpochJobs() (Config, []job.Job) {
	cfg := testConfig(2)
	cfg.Epoch = 1e-6
	var jobs []job.Job
	for i := 0; i < 25; i++ {
		r := 0.1 * float64(i)
		jobs = append(jobs, job.Job{ID: job.ID(i), Release: r, Deadline: r + 0.15, Demand: 100})
	}
	return cfg, jobs
}

// TestRunBoundsEpochs: a run that would start epoch MaxEpochs fails with a
// typed error instead of stepping through millions of idle epochs.
func TestRunBoundsEpochs(t *testing.T) {
	cfg, jobs := tinyEpochJobs()
	var ce *cfgerr.Error
	if _, err := Run(cfg, jobs); !errors.As(err, &ce) || ce.Field != "epoch" {
		t.Fatalf("Run over %g s in %g s epochs returned %v, want a typed epoch error", jobs[len(jobs)-1].Release, cfg.Epoch, err)
	}
	// The same jobs in epochs that fit the bound run fine.
	cfg.Epoch = 1e-4
	if _, err := Run(cfg, jobs); err != nil {
		t.Fatalf("Run in %g s epochs: %v", cfg.Epoch, err)
	}
}

// countingSource cancels its run's context once it has served n epochs.
type countingSource struct {
	job.Source
	calls, n int
	cancel   func()
}

func (s *countingSource) Next(until float64) []job.Job {
	s.calls++
	if s.calls == s.n {
		s.cancel()
	}
	return s.Source.Next(until)
}

// TestRunHonorsContextPerEpoch: the epoch loop polls Server.Context once per
// epoch, so a cancelled run returns the context's error within one epoch
// even when no engine has an event to process.
func TestRunHonorsContextPerEpoch(t *testing.T) {
	cfg, jobs := tinyEpochJobs()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Server.Context = ctx
	src := &countingSource{Source: job.NewSliceSource(jobs), n: 1000, cancel: cancel}
	if _, err := RunStream(cfg, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if src.calls != src.n {
		t.Fatalf("the run pulled %d epochs after the cancel at epoch %d", src.calls-src.n, src.n)
	}
}
