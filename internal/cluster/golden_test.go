package cluster

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dessched/internal/admission"
	"dessched/internal/job"
	"dessched/internal/sim"
	"dessched/internal/telemetry"
	"dessched/internal/telemetry/flightrec"
	"dessched/internal/telemetry/span"
)

// goldenDigest is an FNV-1a accumulator over a cluster run's observable
// output: floats by their bits, counts, names, and artifact bytes.
type goldenDigest struct{ h uint64 }

func newGoldenDigest() *goldenDigest { return &goldenDigest{h: 14695981039346656037} }

func (d *goldenDigest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= v & 0xff
		d.h *= 1099511628211
		v >>= 8
	}
}

func (d *goldenDigest) f(v float64) { d.u64(math.Float64bits(v)) }
func (d *goldenDigest) i(v int)     { d.u64(uint64(int64(v))) }

func (d *goldenDigest) s(v string) {
	d.i(len(v))
	for i := 0; i < len(v); i++ {
		d.h ^= uint64(v[i])
		d.h *= 1099511628211
	}
}

func (d *goldenDigest) classes(cs []sim.ClassResult) {
	d.i(len(cs))
	for _, c := range cs {
		d.s(c.Class)
		d.f(c.Quality)
		d.f(c.MaxQuality)
		d.f(c.NormQuality)
		for _, v := range []int{c.Arrived, c.Completed, c.Deadlined, c.Discarded, c.Shed, c.Abandoned} {
			d.i(v)
		}
	}
}

// simResult folds one server's result: every field but the engine-lifetime
// Events/Invocation counters (pinned separately), per-job outcomes
// included whenever the run produced them.
func (d *goldenDigest) simResult(r sim.Result) {
	d.s(r.Policy)
	for _, v := range []float64{r.Quality, r.MaxQuality, r.NormQuality, r.Energy, r.IdleEnergy,
		r.PeakPower, r.RetryQuality, r.Span, r.SkippedTime} {
		d.f(v)
	}
	for _, v := range []int{r.BudgetViolations, r.Arrived, r.Completed, r.Deadlined, r.Discarded,
		r.Shed, r.Requeued, r.Retried, r.Abandoned} {
		d.i(v)
	}
	d.classes(r.Classes)
	d.i(len(r.Jobs))
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

// clusterResultDigest folds every fleet, per-class, and per-server field of
// a cluster result except Events/Invocation. The Traces, DispatchEvents,
// and BudgetWindows fields are digested through the ClusterTrace bundle.
func clusterResultDigest(r Result) uint64 {
	d := newGoldenDigest()
	d.s(r.Policy)
	d.i(r.Servers)
	d.s(r.Dispatch)
	for _, v := range []float64{r.Quality, r.MaxQuality, r.NormQuality, r.Energy, r.PeakPowerSum,
		r.RetryQuality, r.HedgeQuality, r.Span} {
		d.f(v)
	}
	for _, v := range []int{r.BudgetViolations, r.Arrived, r.Completed, r.Deadlined, r.Discarded,
		r.Shed, r.Requeued, r.Retried, r.Abandoned, r.Hedged, r.HedgeWins} {
		d.i(v)
	}
	d.classes(r.Classes)
	d.i(len(r.PerServer))
	for _, sr := range r.PerServer {
		d.i(sr.Server)
		d.i(sr.Jobs)
		d.f(sr.BudgetShareW)
		d.simResult(sr.Result)
	}
	return d.h
}

func bytesDigest(b []byte) uint64 {
	d := newGoldenDigest()
	d.s(string(b))
	return d.h
}

// clusterGolden is one pinned fleet scenario. sampled swaps the full span
// tracer for a seeded sampling one.
type clusterGolden struct {
	name    string
	cfg     func(t *testing.T) Config
	jobs    func(t *testing.T) []job.Job
	sampled bool
}

func clusterGoldens() []clusterGolden {
	jobs := func(rate, duration float64) func(t *testing.T) []job.Job {
		return func(t *testing.T) []job.Job { return testJobs(t, rate, duration) }
	}
	budgeted := func(servers int, d Dispatch, frac float64) func(t *testing.T) Config {
		return func(t *testing.T) Config {
			cfg := testConfig(servers)
			cfg.Dispatch = d
			cfg.GlobalBudget = frac * float64(servers) * cfg.Server.Budget
			cfg.Epoch = 0.5
			return cfg
		}
	}
	byClass := func(t *testing.T) Config {
		cfg := budgeted(4, ByClass, 0.6)(t)
		cfg.Classes = []string{"interactive", "batch"}
		cfg.Server.QueueOrder = sim.OrderPrioSJF
		cfg.Server.ClassPriority = map[string]int{"interactive": 2, "batch": 1}
		cfg.Server.Admission = admission.Config{Policy: admission.Priority, MaxQueue: 6}
		return cfg
	}
	return []clusterGolden{
		{name: "round-robin-scarce", cfg: budgeted(6, RoundRobin, 0.55), jobs: jobs(150, 3)},
		{name: "least-loaded-scarce", cfg: budgeted(6, LeastLoaded, 0.55), jobs: jobs(150, 3)},
		{name: "hash-scarce", cfg: budgeted(6, Hash, 0.55), jobs: jobs(150, 3)},
		{name: "round-robin-ample", cfg: budgeted(6, RoundRobin, 1.5), jobs: jobs(150, 3)},
		{name: "hash-no-global", cfg: budgeted(5, Hash, 0), jobs: jobs(120, 3)},
		{name: "by-class-prio-admission", cfg: byClass, jobs: twoClassJobs},
		{name: "outage-reroute", cfg: func(t *testing.T) Config {
			cfg := budgeted(4, RoundRobin, 0.6)(t)
			cfg.Faults = make([][]sim.Fault, cfg.Servers)
			for c := 0; c < cfg.Server.Cores; c++ {
				cfg.Faults[1] = append(cfg.Faults[1], sim.Fault{Core: c, Start: 0.7, End: 1.9, SpeedFactor: 0})
			}
			cfg.Faults[2] = []sim.Fault{{Core: 1, Start: 0.4, End: 2.2, SpeedFactor: 0.5}}
			return cfg
		}, jobs: jobs(200, 3)},
		{name: "retry", cfg: func(t *testing.T) Config {
			cfg := budgeted(3, LeastLoaded, 0.7)(t)
			cfg.Server.Retry = sim.RetryPolicy{MaxAttempts: 3, Backoff: 0.01, Multiplier: 2, MaxBackoff: 0.05}
			cfg.Faults = [][]sim.Fault{
				{{Core: 0, Start: 0.4, End: 0.9, SpeedFactor: 0}, {Core: 1, Start: 0.5, End: 1.2, SpeedFactor: 0}},
				nil,
				{{Core: 3, Start: 1.5, End: 2.5, SpeedFactor: 0}},
			}
			return cfg
		}, jobs: jobs(150, 3)},
		{name: "hedge-limit", cfg: func(t *testing.T) Config {
			cfg := budgeted(4, LeastLoaded, 0.65)(t)
			cfg.Hedge = HedgeConfig{Window: 0.15, Limit: 40}
			return cfg
		}, jobs: jobs(150, 3)},
		{name: "hedge-classes", cfg: func(t *testing.T) Config {
			cfg := budgeted(4, RoundRobin, 0.6)(t)
			cfg.Server.QueueOrder = sim.OrderPrioSJF
			cfg.Server.ClassPriority = map[string]int{"interactive": 2, "batch": 1}
			cfg.Hedge = HedgeConfig{Window: 0.15}
			return cfg
		}, jobs: twoClassJobs},
		{name: "chaos-retry-hedge", cfg: func(t *testing.T) Config {
			cfg := budgeted(6, RoundRobin, 0.7)(t)
			cfg.Server.Retry = sim.RetryPolicy{MaxAttempts: 3, Backoff: 0.02, MaxBackoff: 0.2}
			cfg.Hedge = HedgeConfig{Window: 0.15, Limit: 60}
			faults, err := ChaosFaults(21, 4, cfg.Servers, cfg.Server.Cores)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = faults
			return cfg
		}, jobs: jobs(160, 4)},
		{name: "collect-jobs", cfg: func(t *testing.T) Config {
			cfg := budgeted(3, RoundRobin, 0.6)(t)
			cfg.Server.CollectJobs = true
			return cfg
		}, jobs: jobs(120, 3)},
		{name: "sampled-tracer", cfg: budgeted(4, LeastLoaded, 0.6), jobs: jobs(150, 3), sampled: true},
		{name: "one-server", cfg: budgeted(1, RoundRobin, 0.8), jobs: jobs(60, 3)},
		{name: "sparse", cfg: budgeted(16, RoundRobin, 0.6), jobs: jobs(5, 4)},
		{name: "empty", cfg: budgeted(3, LeastLoaded, 0.6), jobs: func(*testing.T) []job.Job { return []job.Job{} }},
	}
}

// goldenArtifacts digests what dispatch, the budget hierarchy, and the
// per-job fates determine: every Result field but Events/Invocation
// (per-job outcomes included), the epoch series, and the executed-schedule
// bundle (traces, dispatch decisions, budget windows).
type goldenArtifacts struct {
	Result, Series, Trace uint64
}

// goldenEvents digests the engine event stream: the Events/Invocation
// counters, fleet-wide and per server, and the artifacts that record every
// engine event — the span trace (one "replan" per invocation), the
// Prometheus exposition (sim_events_total), and the flight dumps.
type goldenEvents struct {
	Events, Invocation                int
	PerServer, Spans, Metrics, Flight uint64
}

// clusterGoldenArtifacts was recorded on the two-path fleet code (a batch
// Run beside the streamed RunStream); it must not move.
var clusterGoldenArtifacts = map[string]goldenArtifacts{
	"round-robin-scarce":      {Result: 0x375468f72cacb661, Series: 0x2810b815b532f94, Trace: 0x6e2f7f00f11a0563},
	"least-loaded-scarce":     {Result: 0x546808ed73750693, Series: 0x752b7ed8a1849700, Trace: 0x59672fe82e1c6143},
	"hash-scarce":             {Result: 0x1b7bc7109c95a9d0, Series: 0xf5eae999321d8522, Trace: 0xf8cb923df6d9db49},
	"round-robin-ample":       {Result: 0x4c805ff06f11c2d3, Series: 0x9028e98142f14065, Trace: 0xb2622803c060a892},
	"hash-no-global":          {Result: 0x3f4391170953669a, Series: 0x795dfc02bf6c70ae, Trace: 0x46218e93c0b59316},
	"by-class-prio-admission": {Result: 0x7a6719acfffa8f41, Series: 0x585ee8183f2e8d25, Trace: 0x6c7a75f79d12d2e9},
	"outage-reroute":          {Result: 0x18f4ce1d032072a3, Series: 0xf0982559eeb5aa36, Trace: 0xea1b259389414f},
	"retry":                   {Result: 0x87c8639bf7fe70a1, Series: 0x9915e776528bb689, Trace: 0x6c1dd0d5c0a6a8d6},
	"hedge-limit":             {Result: 0xb5c88b1ea0c329a8, Series: 0x85d44435884d8f34, Trace: 0x9ff0c838bf4431d9},
	"hedge-classes":           {Result: 0xa8b7ab02d017dad2, Series: 0xe8f57aebb57aacc9, Trace: 0x660a0d0dd85ddc05},
	"chaos-retry-hedge":       {Result: 0x7441bd32b1a2f5a8, Series: 0x7e22a3263e007ef8, Trace: 0x217b817da5fe1025},
	"collect-jobs":            {Result: 0xa22ec41f110e5274, Series: 0x2dbdcfa286e31007, Trace: 0x9085ad69a9bd3bd},
	"sampled-tracer":          {Result: 0xfa874e5bf99e4a9a, Series: 0x2f80602bc702ea9b, Trace: 0xec9057000c8bb032},
	"one-server":              {Result: 0x443e1f8969cbb711, Series: 0x396ce92169b98cf8, Trace: 0xbc545a5930b727b9},
	"sparse":                  {Result: 0x86cf88b3ce4f9116, Series: 0xc814a21ee5ab9379, Trace: 0x5063a382fd951bca},
	"empty":                   {Result: 0x3d8280450d241493, Series: 0x53649a1ff0947679, Trace: 0x87308e1dac08032e},
}

// clusterGoldenEvents was recorded on the same code, then re-pinned where
// the single epoch loop changes an engine's lifetime: a server that runs
// dry before the fleet's last arrival epoch keeps its quantum ticking until
// that epoch, where the two-path code's batch Run stopped it at its own
// final departure. Only the sparse fleet moved. Events and PerServer were
// re-pinned again when each core's segment ends became one timer, so a
// replaced plan's segment ends stopped popping and counting; invocations,
// spans, metrics and flight dumps did not move.
var clusterGoldenEvents = map[string]goldenEvents{
	"round-robin-scarce":      {Events: 1042, Invocation: 814, PerServer: 0xcb7e9f71b804e5a9, Spans: 0x9bba989fa5aa06a5, Metrics: 0x77592c80156f2364, Flight: 0x38bd76dc43d9c551},
	"least-loaded-scarce":     {Events: 1054, Invocation: 814, PerServer: 0x82af243aae044ad9, Spans: 0x38a79c1d20a567df, Metrics: 0xad952f7d14cf5760, Flight: 0x38bd76dc43d9c551},
	"hash-scarce":             {Events: 1127, Invocation: 690, PerServer: 0xb261b825538b7f76, Spans: 0xa931d26528878026, Metrics: 0x85877320e256f069, Flight: 0x1d7ed668964faaa3},
	"round-robin-ample":       {Events: 975, Invocation: 748, PerServer: 0xe76d5e26db9f5e2, Spans: 0xb81dcb3cbd96b837, Metrics: 0xb338f3f4f18523c8, Flight: 0x692cbd95ea912e38},
	"hash-no-global":          {Events: 817, Invocation: 481, PerServer: 0xd0a33bb2f0a671c1, Spans: 0x435a13624189d891, Metrics: 0x18f926918e8ba3b6, Flight: 0x17a1f6f911895cf0},
	"by-class-prio-admission": {Events: 509, Invocation: 161, PerServer: 0x518e151dbc77bb83, Spans: 0x6a6a9245402eda6d, Metrics: 0x3d8be6fa4a6f5b6a, Flight: 0x7f87a5edfdd3bca3},
	"outage-reroute":          {Events: 1725, Invocation: 228, PerServer: 0xf55066d89430798, Spans: 0x652bb950987f8433, Metrics: 0x8417d92371e97895, Flight: 0x4465fdbe9619e257},
	"retry":                   {Events: 1269, Invocation: 268, PerServer: 0x94c3e0cf6e589971, Spans: 0xdba9ca19fa047821, Metrics: 0x9fa8ed9a645e010a, Flight: 0xa52fc43aa2fb703a},
	"hedge-limit":             {Events: 1249, Invocation: 347, PerServer: 0x2ef8aaf5b5513b53, Spans: 0x4d48c935283add3a, Metrics: 0xe2e7bd9dabd5ad5b, Flight: 0x1644cd880b59fac0},
	"hedge-classes":           {Events: 715, Invocation: 225, PerServer: 0xc87575943d95e347, Spans: 0x753ef1c58e906a0, Metrics: 0x384839883281c8a0, Flight: 0xe6837772063c8b4},
	"chaos-retry-hedge":       {Events: 1798, Invocation: 986, PerServer: 0x379f488fda79d4a9, Spans: 0x1b355d0d8d509e4f, Metrics: 0xb5bf8936deb2b522, Flight: 0x6cba0d5524149f67},
	"collect-jobs":            {Events: 905, Invocation: 230, PerServer: 0xfba830053151b16b, Spans: 0xa7316df2f90fbf1d, Metrics: 0x221874e57f0a522f, Flight: 0xb6a9db3d72d8cbcd},
	"sampled-tracer":          {Events: 1125, Invocation: 356, PerServer: 0xb08a81080ff944ca, Spans: 0x64dbcc835b411cd0, Metrics: 0xd3ee561c9d3899f9, Flight: 0x896ec62b22daa8b1},
	"one-server":              {Events: 493, Invocation: 58, PerServer: 0xc00171f049cb6cb9, Spans: 0xd0ced98db4130407, Metrics: 0x9e3261dec9a142d8, Flight: 0x68cd9a86ba6ab6e0},
	"sparse":                  {Events: 102, Invocation: 75, PerServer: 0x4e822d4626a9b602, Spans: 0xddfdbee3386e573c, Metrics: 0xd30b0151cd69b284, Flight: 0xb0587d8e8efe5abd}, // 60 events, 45 invocations before the single epoch loop
	"empty":                   {Events: 0, Invocation: 0, PerServer: 0xa09d945a1cd8d6e5, Spans: 0x3dbfb04ff34ef744, Metrics: 0xa494b66d9e218fdc, Flight: 0xac75c86f44b322cc},
}

func runClusterGolden(t *testing.T, g clusterGolden, workers int) (goldenArtifacts, goldenEvents, Result) {
	t.Helper()
	cfg := g.cfg(t)
	cfg.Workers = workers
	jobs := g.jobs(t)

	bare, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}

	ins := &Instrument{
		Tracer:   span.New(),
		Series:   telemetry.NewSeriesRecorder(0),
		Registry: telemetry.NewRegistry(),
		Traces:   true,
		Flight:   flightrec.New(flightrec.Config{}),
	}
	if g.sampled {
		ins.Tracer = span.NewSampling(span.SampleConfig{Seed: 7, Rate: 0.25})
	}
	cfg.Instrument = ins
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := clusterResultDigest(res), clusterResultDigest(bare); got != want ||
		res.Events != bare.Events || res.Invocation != bare.Invocation {
		t.Fatalf("workers=%d: instrumented run diverged from the bare run", workers)
	}

	var spans, series, metrics, flight, bundle bytes.Buffer
	if err := span.WriteJSON(&spans, ins.Tracer); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteSeriesJSON(&series, ins.Series); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WritePrometheus(&metrics, ins.Registry.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := flightrec.WriteJSON(&flight, ins.Flight); err != nil {
		t.Fatal(err)
	}
	ct := &telemetry.ClusterTrace{
		Servers: res.Servers, Cores: cfg.Server.Cores, PerServer: res.Traces,
		Dispatch: res.DispatchEvents, Budget: res.BudgetWindows, Faults: cfg.Faults,
	}
	if err := telemetry.WriteClusterTraceJSON(&bundle, ct); err != nil {
		t.Fatal(err)
	}
	if g.name == "hedge-classes" && !strings.Contains(metrics.String(), "sim_class_wait_seconds") {
		t.Errorf("workers=%d: hedged classed run lost the per-class wait histogram", workers)
	}
	d := newGoldenDigest()
	for _, sr := range res.PerServer {
		d.i(sr.Result.Events)
		d.i(sr.Result.Invocation)
	}
	return goldenArtifacts{
			Result: clusterResultDigest(res),
			Series: bytesDigest(series.Bytes()),
			Trace:  bytesDigest(bundle.Bytes()),
		}, goldenEvents{
			Events: res.Events, Invocation: res.Invocation, PerServer: d.h,
			Spans: bytesDigest(spans.Bytes()), Metrics: bytesDigest(metrics.Bytes()), Flight: bytesDigest(flight.Bytes()),
		}, res
}

// TestClusterGoldenDigests pins the fleet pipeline's observable output for
// each dispatch policy, ample and scarce global budgets, outages with
// reroute, retry, hedging with a limit, hedging over SLO classes, by-class
// dispatch with prio-sjf and priority admission, collected per-job
// outcomes, a sampled tracer, one server, a sparse fleet, and an empty job
// slice, at Workers 1/4/16. Every row runs bare and with the full
// instrument set (an unsampled span tracer unless the row samples,
// executed-schedule traces, epoch series, metrics registry, flight
// recorder); the two runs must agree on every Result field, and the
// instrumented one pins every Result field — fleet, per-class, per-server,
// per-job outcomes — plus the bytes of the span JSON, series JSON,
// Prometheus exposition, flight dumps, and ClusterTrace bundle.
func TestClusterGoldenDigests(t *testing.T) {
	for _, g := range clusterGoldens() {
		t.Run(g.name, func(t *testing.T) {
			for _, workers := range []int{1, 4, 16} {
				art, ev, res := runClusterGolden(t, g, workers)
				if want := clusterGoldenArtifacts[g.name]; art != want {
					t.Errorf("workers=%d: artifacts\n got  %#v\n want %#v", workers, art, want)
				}
				if want := clusterGoldenEvents[g.name]; ev != want {
					t.Errorf("workers=%d: event stream\n got  %#v\n want %#v", workers, ev, want)
				}
				if g.name == "hedge-classes" {
					// A hedged slice-fed run collects per-job outcomes on
					// every server, as the single-path fleet always did.
					n := 0
					for _, sr := range res.PerServer {
						n += len(sr.Result.Jobs)
					}
					if n != res.Arrived+res.Hedged {
						t.Errorf("workers=%d: %d per-server outcomes, want one per replica (%d)", workers, n, res.Arrived+res.Hedged)
					}
				}
			}
		})
	}
}
