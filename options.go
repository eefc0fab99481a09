package dessched

import (
	"context"
	"io"

	"dessched/internal/cfgerr"
	"dessched/internal/cluster"
	"dessched/internal/hw"
	"dessched/internal/sim"
	"dessched/internal/sweep"
	"dessched/internal/telemetry"
	"dessched/internal/telemetry/span"
)

// Cluster and sweep types, exported through the facade.
type (
	// ClusterConfig describes a simulated fleet of DES servers behind a
	// dispatcher sharing a global power budget.
	ClusterConfig = cluster.Config
	// ClusterResult aggregates a cluster run across the fleet.
	ClusterResult = cluster.Result
	// ClusterServerResult is one server's slice of a cluster run.
	ClusterServerResult = cluster.ServerResult
	// DispatchPolicy selects how the front-end routes requests to servers.
	DispatchPolicy = cluster.Dispatch

	// SweepGrid is a cartesian parameter space (rate × cores × budget ×
	// policy × seed) for the parallel sweep executor.
	SweepGrid = sweep.Grid
	// SweepCell is one point of a sweep grid.
	SweepCell = sweep.Cell
	// SweepCellResult is one simulated sweep cell.
	SweepCellResult = sweep.CellResult
	// SweepOptions tunes sweep execution (worker count, telemetry) without
	// affecting results.
	SweepOptions = sweep.Options
	// SweepReport is a completed sweep: grid, throughput, per-cell results.
	SweepReport = sweep.Report

	// ConfigError is the typed validation error returned for invalid
	// simulation, workload, cluster, or sweep configuration. Detect it
	// with AsConfigError (or errors.As) instead of matching messages.
	ConfigError = cfgerr.Error

	// Observer receives simulation events (ServerConfig.Observer).
	Observer = sim.Observer
	// Recorder receives executed plan slices (ServerConfig.Recorder).
	Recorder = sim.Recorder

	// MetricsRegistry collects named metric families for exposition; see
	// WithTelemetry and the telemetry HTTP endpoints.
	MetricsRegistry = telemetry.Registry
	// MetricsSnapshot is a point-in-time copy of a registry's families.
	MetricsSnapshot = telemetry.Snapshot

	// SpanTracer records hierarchical, simulation-clock spans — the causal
	// counterpart to the final metrics snapshot. See WithSpans and
	// ClusterInstrument.Tracer. A nil tracer disables tracing at zero cost.
	SpanTracer = span.Tracer
	// SpanID names one span within its tracer.
	SpanID = span.ID

	// SeriesRecorder accumulates per-epoch samples in a bounded ring
	// buffer; its OnSample hook drives live streaming. See WithSeries and
	// ClusterInstrument.Series.
	SeriesRecorder = telemetry.SeriesRecorder
	// EpochSample is one per-epoch, per-server observation (quality,
	// energy, effective budget, queue depth, availability, outcomes).
	EpochSample = telemetry.Sample

	// ClusterInstrument attaches observability sinks (span tracer, epoch
	// series, merged metrics registry, executed-schedule traces) to a
	// cluster run via ClusterConfig.Instrument.
	ClusterInstrument = cluster.Instrument

	// ClusterTraceFile bundles a cluster run's executed schedules with the
	// cross-server context (dispatch decisions, budget windows, faults) in
	// the stable dessched-cluster-trace/v1 JSON layout.
	ClusterTraceFile = telemetry.ClusterTrace

	// HardwareCluster is the emulated hardware testbed used for the §V-G
	// energy validation.
	HardwareCluster = hw.Cluster
)

// Dispatch policies for ClusterConfig.Dispatch.
const (
	// DispatchRoundRobin spreads arrivals cumulatively across available
	// servers — the fleet-level analogue of DES's C-RR job distribution.
	DispatchRoundRobin = cluster.RoundRobin
	// DispatchLeastLoaded routes to the server with the least outstanding
	// dispatched demand.
	DispatchLeastLoaded = cluster.LeastLoaded
	// DispatchHash routes by a stateless hash of the job ID (sticky).
	DispatchHash = cluster.Hash
	// DispatchByClass pins each SLO class to its own contiguous server
	// partition (ClusterConfig.Classes, declaration order) and
	// round-robins within it; unlisted classes spill to a global cursor.
	DispatchByClass = cluster.ByClass
)

// AsConfigError unwraps err (through any %w chains) to the typed
// configuration error, reporting whether one was found.
func AsConfigError(err error) (*ConfigError, bool) { return cfgerr.As(err) }

// NewMetricsRegistry returns an empty metrics registry for WithTelemetry
// or the HTTP exposition endpoint.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// NewSpanTracer returns an empty span tracer (bounded at the package
// default span limit) for WithSpans or ClusterInstrument.Tracer.
func NewSpanTracer() *SpanTracer { return span.New() }

// WriteSpanJSON serializes a span trace in the stable dessched-spans/v1
// format (simulation-second timestamps, creation order).
func WriteSpanJSON(w io.Writer, t *SpanTracer) error { return span.WriteJSON(w, t) }

// WriteSpanPerfetto renders a span trace as Chrome trace-event JSON
// loadable in https://ui.perfetto.dev.
func WriteSpanPerfetto(w io.Writer, t *SpanTracer) error { return span.WritePerfetto(w, t) }

// NewSeriesRecorder returns an epoch-series ring buffer holding at most
// capacity samples (non-positive capacity takes the package default).
func NewSeriesRecorder(capacity int) *SeriesRecorder { return telemetry.NewSeriesRecorder(capacity) }

// WriteSeriesJSON serializes retained epoch samples in the stable
// dessched-series/v1 format.
func WriteSeriesJSON(w io.Writer, r *SeriesRecorder) error { return telemetry.WriteSeriesJSON(w, r) }

// WriteSeriesCSV writes retained epoch samples as CSV, oldest first.
func WriteSeriesCSV(w io.Writer, r *SeriesRecorder) error { return telemetry.WriteSeriesCSV(w, r) }

// WriteClusterTraceJSON serializes a cluster trace bundle; destrace
// recognizes the schema and renders per-server Perfetto lanes from it.
func WriteClusterTraceJSON(w io.Writer, ct *ClusterTraceFile) error {
	return telemetry.WriteClusterTraceJSON(w, ct)
}

// ReadClusterTraceJSON parses and validates a cluster trace bundle.
func ReadClusterTraceJSON(r io.Reader) (*ClusterTraceFile, error) {
	return telemetry.ReadClusterTraceJSON(r)
}

// WriteClusterPerfetto renders a cluster trace as Chrome trace-event
// JSON: one process per server with core lanes plus budget/dispatch/
// fault overlay lanes.
func WriteClusterPerfetto(w io.Writer, ct *ClusterTraceFile) error {
	return telemetry.WriteClusterPerfetto(w, ct)
}

// simSetup is the mutable state SimOptions act on before a run starts.
// late hooks run after every option has mutated the config, so they see
// the final fault and budget-window state (the epoch sampler derives
// effective budget and availability from it). drive, when set
// (WithCheckpoint), advances the session before it is finished.
type simSetup struct {
	cfg       *sim.Config
	observers []sim.Observer
	recorders []sim.Recorder
	finish    []func(Result)
	late      []func(*simSetup) error
	drive     func(*sim.Stream) error
}

// SimOption customizes one Simulate, ResumeSimulation (or SimulateCluster)
// call. Options compose left to right; a failing option aborts the run
// with its error before any simulation work happens.
type SimOption func(*simSetup) error

// WithContext cancels the simulation when ctx fires: the engine polls the
// context periodically and returns ctx.Err() mid-run.
func WithContext(ctx context.Context) SimOption {
	return func(s *simSetup) error {
		s.cfg.Context = ctx
		return nil
	}
}

// WithObserver streams simulation events (arrivals, invocations,
// departures, fault edges) to obs, composing with any observer already on
// the config and with other options.
func WithObserver(obs Observer) SimOption {
	return func(s *simSetup) error {
		s.observers = append(s.observers, obs)
		return nil
	}
}

// WithRecorder streams executed plan slices to rec (e.g. a *Trace),
// composing like WithObserver.
func WithRecorder(rec Recorder) SimOption {
	return func(s *simSetup) error {
		s.recorders = append(s.recorders, rec)
		return nil
	}
}

// WithTelemetry wires a full simulation metrics collector into the run:
// event counters, quality/speed histograms, per-core utilization, and the
// run's aggregate result, all registered on reg for exposition (e.g. via
// the server's Prometheus endpoint). Use a fresh registry per run.
func WithTelemetry(reg *MetricsRegistry) SimOption {
	return func(s *simSetup) error {
		if reg == nil {
			return cfgerr.New("facade", "telemetry", "dessched: WithTelemetry needs a non-nil registry")
		}
		col := telemetry.NewSimCollector(reg, s.cfg.Cores)
		s.observers = append(s.observers, col.Observe)
		s.recorders = append(s.recorders, col)
		s.finish = append(s.finish, col.Finish)
		return nil
	}
}

// WithChaos injects a sampled fault schedule into the run: core faults and
// budget faults are appended to the config. The plan's arrival bursts
// cannot be applied here — bursts act at workload-generation time — so a
// plan carrying bursts is rejected with a typed error rather than silently
// under-reporting the intended stress.
func WithChaos(plan ChaosPlan) SimOption {
	return func(s *simSetup) error {
		if len(plan.Bursts) > 0 {
			return cfgerr.New("facade", "chaos",
				"dessched: chaos plan carries %d arrival bursts; apply bursts to the workload config (Bursts field) before generating jobs", len(plan.Bursts))
		}
		s.cfg.Faults = append(s.cfg.Faults, plan.Faults...)
		s.cfg.BudgetFaults = append(s.cfg.BudgetFaults, plan.BudgetFaults...)
		return nil
	}
}

// WithSpans wires a span tracer into the run: a "simulate" root span
// covering the whole run (cores, budget, policy-visible config attrs),
// with every Online-QE replan and fault edge as an instant child span
// carrying queue depth / core attributes. Timestamps are simulation
// seconds, so traces are reproducible bit for bit. A nil tracer is
// rejected — omit the option to disable tracing (the disabled path is
// the engine's usual zero-alloc emit).
func WithSpans(t *SpanTracer) SimOption {
	return func(s *simSetup) error {
		if t == nil {
			return cfgerr.New("facade", "spans", "dessched: WithSpans needs a non-nil tracer")
		}
		// Late-bound: the root's attributes read the final config (chaos
		// options may still append faults after this option).
		s.late = append(s.late, func(s *simSetup) error {
			root := t.Start(span.NoSpan, "simulate", 0)
			t.Int(root, "cores", s.cfg.Cores)
			t.Float(root, "budget_w", s.cfg.Budget)
			t.Int(root, "faults", len(s.cfg.Faults))
			s.observers = append(s.observers, span.Observe(t, root))
			s.finish = append(s.finish, func(res Result) { t.End(root, res.Span) })
			return nil
		})
		return nil
	}
}

// WithSeries samples the run into rec once per epoch (epochLen seconds;
// non-positive takes 1 s): quality, dynamic energy, effective power
// budget, queue depth, availability, and outcome counts, all on the
// simulation clock. rec's OnSample hook fires as epochs close — the
// live-streaming path. A nil recorder is rejected; omit the option to
// disable.
func WithSeries(rec *SeriesRecorder, epochLen float64) SimOption {
	return func(s *simSetup) error {
		if rec == nil {
			return cfgerr.New("facade", "series", "dessched: WithSeries needs a non-nil recorder")
		}
		// Late-bound: the sampler snapshots the config to derive effective
		// budget (BudgetAt) and per-core availability, so it must see the
		// final fault/budget-window state.
		s.late = append(s.late, func(s *simSetup) error {
			sampler := telemetry.NewEpochSampler(rec, 0, epochLen, *s.cfg)
			s.observers = append(s.observers, sampler.Observe)
			s.recorders = append(s.recorders, sampler)
			s.finish = append(s.finish, func(res Result) { sampler.Finish(res.Span) })
			return nil
		})
		return nil
	}
}

// simulate runs one single-server session: it applies the options to a
// copy of cfg, merging the collected observers/recorders with whatever the
// config already carries, opens the session on the result (Start on a job
// slice, RestoreStream on a snapshot), drives and finishes it, and hands
// the result to the options' finish hooks.
func simulate(cfg sim.Config, opts []SimOption, open func(sim.Config) (*sim.Stream, error)) (Result, error) {
	s := simSetup{cfg: &cfg}
	for _, opt := range opts {
		if err := opt(&s); err != nil {
			return Result{}, err
		}
	}
	for _, l := range s.late {
		if err := l(&s); err != nil {
			return Result{}, err
		}
	}
	if len(s.observers) > 0 {
		if cfg.Observer != nil {
			s.observers = append([]sim.Observer{cfg.Observer}, s.observers...)
		}
		if len(s.observers) == 1 {
			cfg.Observer = s.observers[0]
		} else {
			cfg.Observer = telemetry.MultiObserver(s.observers...)
		}
	}
	if len(s.recorders) > 0 {
		if cfg.Recorder != nil {
			s.recorders = append([]sim.Recorder{cfg.Recorder}, s.recorders...)
		}
		if len(s.recorders) == 1 {
			cfg.Recorder = s.recorders[0]
		} else {
			cfg.Recorder = telemetry.MultiRecorder(s.recorders...)
		}
	}
	st, err := open(cfg)
	if err != nil {
		return Result{}, err
	}
	if s.drive != nil {
		if err := s.drive(st); err != nil {
			return Result{}, err
		}
	}
	res, err := st.Finish()
	if err != nil {
		return Result{}, err
	}
	for _, f := range s.finish {
		f(res)
	}
	return res, nil
}

// SimulateCluster runs a whole fleet over a job slice — SimulateClusterStream
// over NewSliceJobSource(jobs): per dispatch epoch the dispatcher spreads
// the arrivals across the servers, the hierarchical water-filling stage
// partitions the global power budget, and every server's engine advances
// in parallel. Results are bit-identical for any ClusterConfig.Workers
// value. Of the simulation options only WithContext applies at
// fleet scope; per-run hooks (observers, recorders, telemetry, chaos,
// checkpoints) are rejected with a typed error — use ClusterConfig.Faults
// for fleet chaos and ClusterConfig.StreamCheckpoint for fleet snapshots.
func SimulateCluster(cfg ClusterConfig, jobs []Job, opts ...SimOption) (ClusterResult, error) {
	probe := simSetup{cfg: &cfg.Server}
	faults0, bfaults0 := len(cfg.Server.Faults), len(cfg.Server.BudgetFaults)
	for _, opt := range opts {
		before := probe
		if err := opt(&probe); err != nil {
			return ClusterResult{}, err
		}
		if len(probe.observers) != len(before.observers) ||
			len(probe.recorders) != len(before.recorders) ||
			len(probe.finish) != len(before.finish) ||
			len(probe.late) != len(before.late) || probe.drive != nil ||
			len(cfg.Server.Faults) != faults0 || len(cfg.Server.BudgetFaults) != bfaults0 {
			return ClusterResult{}, cfgerr.New("facade", "options",
				"dessched: only WithContext applies to SimulateCluster; per-run hooks cannot span the fleet's concurrent engines — use ClusterConfig.Instrument for fleet observability")
		}
	}
	return cluster.Run(cfg, jobs)
}

// ClusterChaosFaults samples an independent seeded core-fault schedule for
// every server of a fleet (ClusterConfig.Faults).
func ClusterChaosFaults(seed uint64, horizon float64, servers, cores int) ([][]Fault, error) {
	return cluster.ChaosFaults(seed, horizon, servers, cores)
}

// RunSweep executes a parameter grid across a bounded worker pool. The
// report's cell order and every result bit are independent of
// SweepOptions.Workers. Cancel ctx to abort early.
func RunSweep(ctx context.Context, grid SweepGrid, opts SweepOptions) (SweepReport, error) {
	return sweep.Run(ctx, grid, opts)
}

// WriteSweepJSON writes a sweep report as indented JSON.
func WriteSweepJSON(w io.Writer, rep SweepReport) error { return sweep.WriteJSON(w, rep) }

// WriteSweepCSV writes a sweep report as one CSV row per cell.
func WriteSweepCSV(w io.Writer, rep SweepReport) error { return sweep.WriteCSV(w, rep) }
