package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"dessched/internal/admission"
	"dessched/internal/cfgerr"
	"dessched/internal/cluster"
	"dessched/internal/job"
	"dessched/internal/sim"
	"dessched/internal/sweep"
	"dessched/internal/telemetry"
	"dessched/internal/telemetry/ledger"
	"dessched/internal/workload"
	"dessched/internal/workloadspec"
)

// Resource ceilings for the synchronous simulation endpoints: requests
// beyond them are rejected up front with invalid_config instead of tying a
// worker slot up for minutes.
const (
	// Fleet runs pull arrivals lazily and fold results per epoch, so
	// memory stays bounded by the fleet size rather than the job count.
	maxClusterServers = 1024
	maxSweepCells     = 1024
	maxSweepServers   = 16
	// The engine allocates per-core state before its first event, so
	// cores is bounded before any config is built: 256 is 4× the largest
	// core count the paper evaluates (Fig. 9), and with maxClusterServers
	// it bounds that state near 200 MiB.
	maxCores = 256
)

// checkServer bounds the per-server knobs every endpoint accepts: cores in
// [0, maxCores] and a budget_w that is not negative, where 0 keeps the
// paper server's default.
func checkServer(cores int, budget float64) error {
	if cores < 0 || cores > maxCores {
		return cfgerr.New("httpapi", "cores", "cores must be in [0, %d], got %d", maxCores, cores)
	}
	if !(budget >= 0) {
		return cfgerr.New("httpapi", "budget_w", "budget_w must not be negative, got %g", budget)
	}
	return nil
}

// ClusterSimRequest is the body of POST /v1/cluster/simulate: one fleet
// run — M servers behind a dispatcher, optionally sharing a global power
// budget through the hierarchical water-filling stage.
type ClusterSimRequest struct {
	Servers  int    `json:"servers"`  // fleet size, required, <= 1024
	Policy   string `json:"policy"`   // per-server policy spec (default "des")
	Dispatch string `json:"dispatch"` // round-robin | least-loaded | hash | by-class

	Cores  int     `json:"cores"`    // per server, default 16
	Budget float64 `json:"budget_w"` // per server, default 320

	// GlobalBudget enables the hierarchy when positive; 0 leaves every
	// server at its nominal budget.
	GlobalBudget float64 `json:"global_budget_w"`
	Epoch        float64 `json:"epoch_s"` // dispatch and budget-reflow granularity, default 1; duration_s/epoch_s <= cluster.MaxEpochs

	Rate     float64  `json:"rate"` // fleet-wide arrival rate, required unless workload is set
	Duration float64  `json:"duration_s"`
	Seed     uint64   `json:"seed"`
	Partial  *float64 `json:"partial_fraction"`

	// Workload is an inline dessched-workload/v1 spec replacing the
	// default single-rate generator; conflicts with rate and
	// partial_fraction, and duration_s/seed override the spec's own. The
	// response then breaks the fleet run out per class in classes.
	Workload *workloadspec.Spec `json:"workload,omitempty"`

	// ChaosSeed, when set, samples an independent core-fault schedule for
	// every server (see cluster.ChaosFaults).
	ChaosSeed *uint64 `json:"chaos_seed,omitempty"`

	// Telemetry attaches the merged metrics snapshot to the response:
	// per-server sim_* families with a prepended "server" label plus
	// cluster_* summary gauges (mirroring sweep's per-cell snapshots).
	Telemetry bool `json:"telemetry,omitempty"`

	// Series attaches the per-epoch per-server time series (see
	// telemetry.Sample) to the response.
	Series bool `json:"series,omitempty"`

	// QueueOrder picks every server engine's ready-queue discipline by
	// registry name (fcfs | sjf | edf | prio-sjf | prio-edf); empty keeps
	// the default arrival order.
	QueueOrder string `json:"queue_order,omitempty"`

	// Admission configures per-server load shedding in front of the
	// scheduler engines.
	Admission *AdmissionJSON `json:"admission,omitempty"`

	// Stream is accepted and ignored: every fleet run pulls its arrivals
	// lazily (see docs/SCALE.md). It stays so that older request bodies
	// still decode (unknown fields are rejected).
	Stream bool `json:"stream,omitempty"`
}

// ClusterServerJSON is one server's slice of the fleet response.
type ClusterServerJSON struct {
	Server       int     `json:"server"`
	Jobs         int     `json:"jobs"`
	BudgetShareW float64 `json:"budget_share_w"`
	NormQuality  float64 `json:"norm_quality"`
	EnergyJ      float64 `json:"energy_j"`
	Completed    int     `json:"completed"`
	Deadlined    int     `json:"deadlined"`
}

// ClusterSimResponse aggregates the fleet run.
type ClusterSimResponse struct {
	Policy        string  `json:"policy"`
	Servers       int     `json:"servers"`
	Dispatch      string  `json:"dispatch"`
	NormQuality   float64 `json:"norm_quality"`
	Quality       float64 `json:"quality"`
	EnergyJ       float64 `json:"energy_j"`
	PeakPowerSumW float64 `json:"peak_power_sum_w"`
	Arrived       int     `json:"arrived"`
	Completed     int     `json:"completed"`
	Deadlined     int     `json:"deadlined"`
	Shed          int     `json:"shed,omitempty"`
	SpanS         float64 `json:"span_s"`

	// Classes breaks the fleet run out per SLO job class for classed
	// workloads, sorted by class name; identical for any worker count.
	Classes []sim.ClassResult `json:"classes,omitempty"`

	PerServer []ClusterServerJSON `json:"per_server"`

	// Telemetry and Series are attached only when requested.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
	Series    []telemetry.Sample  `json:"series,omitempty"`
}

func (a api) handleClusterSimulate(w http.ResponseWriter, r *http.Request) {
	var req ClusterSimRequest
	if err := decodeBody(r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	resp, entry, err := runCluster(r.Context(), req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	a.record(r, entry)
	writeJSON(w, http.StatusOK, resp)
}

func runCluster(ctx context.Context, req ClusterSimRequest) (ClusterSimResponse, ledger.Entry, error) {
	fail := func(err error) (ClusterSimResponse, ledger.Entry, error) {
		return ClusterSimResponse{}, ledger.Entry{}, err
	}
	if req.Servers <= 0 || req.Servers > maxClusterServers {
		return fail(cfgerr.New("httpapi", "servers",
			"cluster: servers must be in [1, %d], got %d", maxClusterServers, req.Servers))
	}
	if err := checkServer(req.Cores, req.Budget); err != nil {
		return fail(err)
	}
	if req.Workload == nil && req.Rate <= 0 {
		return fail(cfgerr.New("httpapi", "rate", "cluster: rate must be positive, got %g", req.Rate))
	}
	dispatch, err := cluster.ParseDispatch(req.Dispatch)
	if err != nil {
		return fail(err)
	}

	server := sim.PaperConfig()
	if req.Cores > 0 {
		server.Cores = req.Cores
	}
	if req.Budget > 0 {
		server.Budget = req.Budget
	}
	server.Context = ctx
	if server.QueueOrder, err = sim.ParseQueueOrder(req.QueueOrder); err != nil {
		return fail(err)
	}
	if req.Admission != nil {
		pol, err := admission.ParsePolicy(req.Admission.Policy)
		if err != nil {
			return fail(err)
		}
		server.Admission = admission.Config{Policy: pol, MaxQueue: req.Admission.MaxQueue}
	}

	// Either the default single-rate stream or an inline declarative
	// spec, pulled lazily; horizon is the stream length the chaos sampler
	// covers.
	var src job.Source
	horizon := 30.0
	if req.Workload != nil {
		if req.Rate != 0 {
			return fail(cfgerr.New("httpapi", "rate",
				"cluster: rate conflicts with workload (the spec fixes per-class rates)"))
		}
		if req.Partial != nil {
			return fail(cfgerr.New("httpapi", "partial_fraction",
				"cluster: partial_fraction conflicts with workload (set per-class partial fractions in the spec)"))
		}
		if req.Duration > 0 {
			req.Workload.Duration = req.Duration
		}
		if req.Seed > 0 {
			req.Workload.Seed = req.Seed
		}
		if err := req.Workload.Validate(); err != nil {
			return fail(err)
		}
		if server.ClassQuality, err = req.Workload.QualityByClass(); err != nil {
			return fail(err)
		}
		server.ClassPriority = req.Workload.PriorityByClass()
		if src, err = workloadspec.NewStream(req.Workload); err != nil {
			return fail(err)
		}
		horizon = req.Workload.Duration
	} else {
		wl := workload.DefaultConfig(req.Rate)
		if req.Duration > 0 {
			wl.Duration = req.Duration
		} else {
			wl.Duration = 30
		}
		if req.Seed > 0 {
			wl.Seed = req.Seed
		}
		if req.Partial != nil {
			wl.PartialFraction = *req.Partial
		}
		if src, err = workload.NewStream(wl); err != nil {
			return fail(err)
		}
		horizon = wl.Duration
	}
	if err := checkEpochs(horizon, req.Epoch); err != nil {
		return fail(err)
	}

	cfg := cluster.Config{
		Servers:      req.Servers,
		Server:       server,
		Policy:       req.Policy,
		Dispatch:     dispatch,
		GlobalBudget: req.GlobalBudget,
		Epoch:        req.Epoch,
	}
	// By-class dispatch partitions the fleet by the spec's class list, in
	// declaration order; cluster.Validate rejects the policy without one.
	if dispatch == cluster.ByClass && req.Workload != nil {
		cfg.Classes = req.Workload.ClassNames()
	}
	var ins *cluster.Instrument
	if req.Telemetry || req.Series {
		ins = &cluster.Instrument{}
		if req.Telemetry {
			ins.Registry = telemetry.NewRegistry()
		}
		if req.Series {
			ins.Series = telemetry.NewSeriesRecorder(0)
		}
		cfg.Instrument = ins
	}
	if req.ChaosSeed != nil {
		faults, err := cluster.ChaosFaults(*req.ChaosSeed, horizon, cfg.Servers, server.Cores)
		if err != nil {
			return fail(err)
		}
		cfg.Faults = faults
	}

	res, err := cluster.RunStream(cfg, src)
	if err != nil {
		return fail(err)
	}

	resp := ClusterSimResponse{
		Policy:        res.Policy,
		Servers:       res.Servers,
		Dispatch:      res.Dispatch,
		NormQuality:   res.NormQuality,
		Quality:       res.Quality,
		EnergyJ:       res.Energy,
		PeakPowerSumW: res.PeakPowerSum,
		Arrived:       res.Arrived,
		Completed:     res.Completed,
		Deadlined:     res.Deadlined,
		Shed:          res.Shed,
		SpanS:         res.Span,
		Classes:       res.Classes,
	}
	for _, sr := range res.PerServer {
		resp.PerServer = append(resp.PerServer, ClusterServerJSON{
			Server:       sr.Server,
			Jobs:         sr.Jobs,
			BudgetShareW: sr.BudgetShareW,
			NormQuality:  sr.Result.NormQuality,
			EnergyJ:      sr.Result.Energy,
			Completed:    sr.Result.Completed,
			Deadlined:    sr.Result.Deadlined,
		})
	}
	if ins != nil {
		if ins.Registry != nil {
			snap := ins.Registry.Snapshot()
			resp.Telemetry = &snap
		}
		if ins.Series != nil {
			resp.Series = ins.Series.Samples()
		}
	}
	entry := ledger.Entry{
		Fingerprint: ledger.Fingerprint(cluster.FingerprintConfig(cfg)),
		Seed:        req.Seed,
		Policy:      res.Policy,
		Servers:     res.Servers,
		Cores:       server.Cores,
		BudgetW:     server.Budget * float64(res.Servers),
		DurationS:   horizon,
		Jobs:        res.Arrived,
		Quality:     res.Quality,
		NormQuality: res.NormQuality,
		EnergyJ:     res.Energy,
		Completed:   res.Completed,
		Deadlined:   res.Deadlined,
		Shed:        res.Shed,
		Classes:     ledgerClasses(res.Classes),
	}
	if req.GlobalBudget > 0 {
		entry.BudgetW = req.GlobalBudget
	}
	if req.Workload != nil {
		entry.Workload = req.Workload.Name
		if raw, err := json.Marshal(req.Workload); err == nil {
			entry.WorkloadHash = ledger.HashBytes(raw)
		}
	}
	return resp, entry, nil
}

// checkEpochs rejects, before any work, a fleet run whose duration spans
// more than cluster.MaxEpochs dispatch epochs of epoch seconds (0 = the
// 1 s default). A horizon stretched by trailing deadlines can still hit
// the bound mid-run, which also fails with a typed error.
func checkEpochs(duration, epoch float64) error {
	if epoch <= 0 {
		epoch = 1
	}
	if duration/epoch > cluster.MaxEpochs {
		return cfgerr.New("httpapi", "epoch_s",
			"cluster: duration_s/epoch_s = %g/%g spans more than %d dispatch epochs; raise epoch_s", duration, epoch, cluster.MaxEpochs)
	}
	return nil
}

// SweepRequest is the body of POST /v1/sweep: a parameter grid executed
// across a bounded worker pool. The grid is capped at 1024 cells.
type SweepRequest struct {
	Rates    []float64 `json:"rates"`
	Cores    []int     `json:"cores"`
	Budgets  []float64 `json:"budgets_w"`
	Policies []string  `json:"policies"`
	Seeds    []uint64  `json:"seeds"`
	Duration float64   `json:"duration_s"`

	Servers          int     `json:"servers,omitempty"`
	Dispatch         string  `json:"dispatch,omitempty"`
	GlobalBudgetFrac float64 `json:"global_budget_frac,omitempty"`
	Epoch            float64 `json:"epoch_s,omitempty"`

	// Workload replaces the rates axis with a declarative spec (see
	// sweep.Grid.Workload); conflicts with rates.
	Workload *workloadspec.Spec `json:"workload,omitempty"`

	// QueueOrder, Admission, and MaxQueue apply one SLO setting to every
	// cell (scalar knobs, not grid axes); see sweep.Grid.
	QueueOrder string `json:"queue_order,omitempty"`
	Admission  string `json:"admission,omitempty"`
	MaxQueue   int    `json:"max_queue,omitempty"`

	Workers   int  `json:"workers,omitempty"`
	Telemetry bool `json:"telemetry,omitempty"`
}

func (a api) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeBody(r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	rep, err := runSweep(r.Context(), req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(rep.Cells) > 0 {
		// Mirror `desim sweep -ledger`: one manifest for the grid, keyed on
		// the best cell by normalized quality.
		best := rep.Cells[0]
		jobs := 0
		for _, c := range rep.Cells {
			jobs += c.Arrived
			if c.NormQuality > best.NormQuality {
				best = c
			}
		}
		a.record(r, ledger.Entry{
			Seeds:       req.Seeds,
			Policies:    req.Policies,
			Servers:     req.Servers,
			DurationS:   req.Duration,
			Jobs:        jobs,
			NormQuality: best.NormQuality,
			EnergyJ:     best.Energy,
			Note: fmt.Sprintf("sweep: %d cells; best cell policy=%s rate=%g cores=%d budget=%g seed=%d",
				len(rep.Cells), best.Policy, best.Rate, best.Cores, best.Budget, best.Seed),
		})
	}
	writeJSON(w, http.StatusOK, rep)
}

func runSweep(ctx context.Context, req SweepRequest) (sweep.Report, error) {
	for _, c := range req.Cores {
		if err := checkServer(c, 0); err != nil {
			return sweep.Report{}, err
		}
	}
	grid := sweep.Grid{
		Rates:            req.Rates,
		Cores:            req.Cores,
		Budgets:          req.Budgets,
		Policies:         req.Policies,
		Seeds:            req.Seeds,
		Duration:         req.Duration,
		Servers:          req.Servers,
		Dispatch:         req.Dispatch,
		GlobalBudgetFrac: req.GlobalBudgetFrac,
		Epoch:            req.Epoch,
		Workload:         req.Workload,
		QueueOrder:       req.QueueOrder,
		Admission:        req.Admission,
		MaxQueue:         req.MaxQueue,
	}
	if err := grid.Validate(); err != nil {
		return sweep.Report{}, err
	}
	if n := len(grid.Cells()); n > maxSweepCells {
		return sweep.Report{}, cfgerr.New("httpapi", "grid",
			"sweep: grid has %d cells, limit is %d", n, maxSweepCells)
	}
	if grid.Servers > maxSweepServers {
		return sweep.Report{}, cfgerr.New("httpapi", "servers",
			"sweep: servers must be at most %d per cell, got %d", maxSweepServers, grid.Servers)
	}
	rep, err := sweep.Run(ctx, grid, sweep.Options{Workers: req.Workers, Telemetry: req.Telemetry})
	if err != nil {
		return sweep.Report{}, fmt.Errorf("sweep failed: %w", err)
	}
	return rep, nil
}
