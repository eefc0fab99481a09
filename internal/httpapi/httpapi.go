// Package httpapi exposes the scheduler reproduction as a small JSON/HTTP
// service, so experiments and one-off simulations can be driven from
// notebooks or dashboards without linking Go code:
//
//	GET  /healthz                    liveness
//	GET  /metrics                    Prometheus text exposition
//	GET  /v1/experiments             list experiment runners
//	POST /v1/experiments/{id}        run one experiment (body: options)
//	POST /v1/simulate                run one simulation (body: SimRequest)
//	POST /v1/cluster/simulate        run a multi-server fleet (ClusterSimRequest)
//	POST /v1/sweep                   run a parameter sweep (SweepRequest)
//
// Failing requests all return the same JSON envelope,
// {"error":{"code","message"}} — see ErrorBody and docs/API.md.
//
// Everything is stdlib net/http; handlers are stateless and safe for
// concurrent use. NewHandler wraps the routes in a hardening stack —
// panic recovery, concurrency shedding (429 + Retry-After), request body
// limits (413), and per-request timeouts (503) — plus request
// instrumentation (latency histogram, in-flight gauge, per-code response
// counters; see ServerMetrics) and opt-in pprof endpoints, and Serve adds
// graceful signal-driven shutdown with connection draining; desserver
// uses both. See docs/OBSERVABILITY.md for the metric catalog.
// /v1/simulate accepts fault injection (core, budget, burst, chaos) and
// admission-control settings, and faulted runs return a resilience report
// against their fault-free twin.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"dessched/internal/admission"
	"dessched/internal/cfgerr"
	"dessched/internal/cluster"
	"dessched/internal/experiments"
	"dessched/internal/job"
	"dessched/internal/metrics"
	"dessched/internal/power"
	"dessched/internal/sim"
	"dessched/internal/telemetry/ledger"
	"dessched/internal/workload"
	"dessched/internal/workloadspec"
)

// NewMux returns the service's routing table with default options (no
// run ledger, no request log). Router-generated errors — the stdlib
// mux's plain-text 404 for unknown paths and 405 for wrong methods — are
// rewritten into the JSON error envelope, so every error the API emits
// has the same shape.
func NewMux() http.Handler { return newMux(Options{}) }

// api carries the per-service options the handlers need: the run-ledger
// path and the structured logger.
type api struct{ o Options }

func newMux(o Options) http.Handler {
	a := api{o: o}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", handleHealth)
	mux.HandleFunc("GET /v1/experiments", handleList)
	mux.HandleFunc("POST /v1/experiments/{id}", a.handleRunExperiment)
	mux.HandleFunc("POST /v1/simulate", a.handleSimulate)
	mux.HandleFunc("POST /v1/cluster/simulate", a.handleClusterSimulate)
	mux.HandleFunc("POST /v1/sweep", a.handleSweep)
	return envelopeRouterErrors(mux)
}

// record appends a run manifest to the service ledger, when one is
// configured. A ledger failure never fails the request that produced the
// result — it is logged and dropped, matching the "observability must
// not perturb the run" contract.
func (a api) record(r *http.Request, e ledger.Entry) {
	if a.o.LedgerPath == "" {
		return
	}
	e.Cmd = "http:" + r.URL.Path
	if id := RequestID(r.Context()); id != "" {
		if e.Note != "" {
			e.Note += "; "
		}
		e.Note += "request " + id
	}
	if err := ledger.Append(a.o.LedgerPath, e); err != nil && a.o.Log != nil {
		a.o.Log.Warn("ledger append failed", "path", a.o.LedgerPath, "err", err)
	}
}

func handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ExperimentInfo describes one runner in the listing.
type ExperimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Paper string `json:"paper"`
}

func handleList(w http.ResponseWriter, r *http.Request) {
	var out []ExperimentInfo
	for _, e := range experiments.All() {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title, Paper: e.Paper})
	}
	writeJSON(w, http.StatusOK, out)
}

// RunRequest is the body of POST /v1/experiments/{id}. Zero values take
// the harness defaults.
type RunRequest struct {
	Duration float64   `json:"duration_s"`
	Seed     uint64    `json:"seed"`
	Rates    []float64 `json:"rates"`
	Workers  int       `json:"workers"`
	Replicas int       `json:"replicas"`
}

// TableJSON is one result table in the response.
type TableJSON struct {
	Name      string      `json:"name"`
	Title     string      `json:"title"`
	XLabel    string      `json:"x_label,omitempty"`
	Columns   []string    `json:"columns"`
	RowLabels []string    `json:"row_labels,omitempty"`
	X         []float64   `json:"x,omitempty"`
	Rows      [][]float64 `json:"rows"`
}

func (a api) handleRunExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := experiments.ByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown experiment %q", id))
		return
	}
	var req RunRequest
	if err := decodeBody(r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	tabs, err := e.Run(experiments.Options{
		Duration: req.Duration,
		Seed:     req.Seed,
		Rates:    req.Rates,
		Workers:  req.Workers,
		Replicas: req.Replicas,
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	out := make([]TableJSON, 0, len(tabs))
	for _, t := range tabs {
		tj := TableJSON{Name: t.Name, Title: t.Title, XLabel: t.XLabel, Columns: t.Columns, RowLabels: t.RowLabels}
		for _, row := range t.Rows {
			if len(t.RowLabels) == 0 {
				tj.X = append(tj.X, row.X)
			}
			tj.Rows = append(tj.Rows, row.Y)
		}
		out = append(out, tj)
	}
	a.record(r, ledger.Entry{
		Seed:      req.Seed,
		DurationS: req.Duration,
		Note:      fmt.Sprintf("experiment %s: %s", e.ID, e.Title),
	})
	writeJSON(w, http.StatusOK, out)
}

// FaultJSON is one core speed fault (throttle or outage) in a SimRequest.
type FaultJSON struct {
	Core        int     `json:"core"`
	Start       float64 `json:"start_s"`
	End         float64 `json:"end_s"`
	SpeedFactor float64 `json:"speed_factor"` // 0 = outage
}

// BudgetFaultJSON drops the power budget to a fraction during a window.
type BudgetFaultJSON struct {
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
	Fraction float64 `json:"fraction"`
}

// BurstJSON scales the arrival rate during a window.
type BurstJSON struct {
	Start      float64 `json:"start_s"`
	End        float64 `json:"end_s"`
	Multiplier float64 `json:"multiplier"`
}

// AdmissionJSON configures the load-shedding stage.
type AdmissionJSON struct {
	Policy   string `json:"policy"` // none | tail-drop | quality-aware | priority
	MaxQueue int    `json:"max_queue"`
}

// SimRequest is the body of POST /v1/simulate.
type SimRequest struct {
	Policy   string   `json:"policy"`   // any scheduler name (cluster.Policies); default des
	Discrete bool     `json:"discrete"` // 0.5..3.0 GHz ladder
	Cores    int      `json:"cores"`    // default 16
	Budget   float64  `json:"budget_w"` // default 320
	Rate     float64  `json:"rate"`     // required unless workload is set
	Duration float64  `json:"duration_s"`
	Seed     uint64   `json:"seed"`
	Partial  *float64 `json:"partial_fraction"` // default 1.0

	// Workload is an inline dessched-workload/v1 spec replacing the
	// default single-rate generator: per-class rates, deadlines, demands,
	// and quality functions. Conflicts with rate and partial_fraction;
	// duration_s and seed, when set, override the spec's own. The response
	// then carries per-class breakdowns in classes.
	Workload *workloadspec.Spec `json:"workload,omitempty"`

	// Fault injection. When any fault is present the response carries a
	// resilience report comparing the run against its fault-free twin.
	Faults       []FaultJSON       `json:"faults,omitempty"`
	BudgetFaults []BudgetFaultJSON `json:"budget_faults,omitempty"`
	Bursts       []BurstJSON       `json:"bursts,omitempty"`
	// ChaosSeed, when set, samples a DefaultChaos fault schedule over the
	// run's duration and applies it on top of any explicit faults.
	ChaosSeed *uint64 `json:"chaos_seed,omitempty"`

	// Admission configures load shedding in front of the scheduler.
	Admission *AdmissionJSON `json:"admission,omitempty"`

	// QueueOrder picks the engine's ready-queue discipline by registry
	// name (fcfs | sjf | edf | prio-sjf | prio-edf); empty keeps the
	// default arrival order. The class-priority hybrids read per-class
	// priorities from the workload spec, so they need one to bite.
	QueueOrder string `json:"queue_order,omitempty"`
}

// SimResponse mirrors sim.Result with JSON-friendly names. Faulted runs
// additionally carry a resilience report against the fault-free twin.
type SimResponse struct {
	Policy           string  `json:"policy"`
	NormQuality      float64 `json:"norm_quality"`
	Quality          float64 `json:"quality"`
	EnergyJ          float64 `json:"energy_j"`
	PeakPowerW       float64 `json:"peak_power_w"`
	BudgetViolations int     `json:"budget_violations"`
	Arrived          int     `json:"arrived"`
	Completed        int     `json:"completed"`
	Deadlined        int     `json:"deadlined"`
	Discarded        int     `json:"discarded"`
	Shed             int     `json:"shed,omitempty"`
	Requeued         int     `json:"requeued,omitempty"`
	Invocations      int     `json:"invocations"`
	SpanS            float64 `json:"span_s"`

	// Classes breaks the run out per SLO job class for classed workloads
	// (requests with a workload spec), sorted by class name.
	Classes []sim.ClassResult `json:"classes,omitempty"`

	Resilience *metrics.ResilienceReport `json:"resilience,omitempty"`
}

func (a api) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimRequest
	if err := decodeBody(r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	resp, entry, err := runSimulation(r.Context(), req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	a.record(r, entry)
	writeJSON(w, http.StatusOK, resp)
}

func runSimulation(ctx context.Context, req SimRequest) (SimResponse, ledger.Entry, error) {
	fail := func(err error) (SimResponse, ledger.Entry, error) { return SimResponse{}, ledger.Entry{}, err }
	if err := checkServer(req.Cores, req.Budget); err != nil {
		return fail(err)
	}
	spec, err := cluster.ParsePolicy(req.Policy)
	if err != nil {
		return fail(err)
	}
	cfg := sim.PaperConfig()
	cfg.Context = ctx
	if req.Cores > 0 {
		cfg.Cores = req.Cores
	}
	if req.Budget > 0 {
		cfg.Budget = req.Budget
	}
	if req.Discrete {
		cfg.Ladder = power.DefaultLadder
	}

	// The workload is either the default single-rate generator or an
	// inline declarative spec; either way horizon is the stream length
	// the chaos sampler covers.
	var wl workload.Config
	horizon := 30.0
	if req.Workload != nil {
		if req.Rate != 0 {
			return fail(fmt.Errorf("rate conflicts with workload (the spec fixes per-class rates)"))
		}
		if req.Partial != nil {
			return fail(fmt.Errorf("partial_fraction conflicts with workload (set per-class partial fractions in the spec)"))
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
		if cfg.ClassQuality, err = req.Workload.QualityByClass(); err != nil {
			return fail(err)
		}
		cfg.ClassPriority = req.Workload.PriorityByClass()
		horizon = req.Workload.Duration
	} else {
		if req.Rate <= 0 {
			return fail(fmt.Errorf("rate must be positive"))
		}
		wl = workload.DefaultConfig(req.Rate)
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
		horizon = wl.Duration
	}

	// Fault injection: explicit faults plus an optional sampled chaos plan.
	// Burst faults are kept aside so the fault-free twin can run without
	// them (spec workloads absorb them as extra rate windows).
	var bursts []workload.Burst
	for _, f := range req.Faults {
		cfg.Faults = append(cfg.Faults, sim.Fault{Core: f.Core, Start: f.Start, End: f.End, SpeedFactor: f.SpeedFactor})
	}
	for _, f := range req.BudgetFaults {
		cfg.BudgetFaults = append(cfg.BudgetFaults, sim.BudgetFault{Start: f.Start, End: f.End, Fraction: f.Fraction})
	}
	for _, b := range req.Bursts {
		bursts = append(bursts, workload.Burst{Start: b.Start, End: b.End, Multiplier: b.Multiplier})
	}
	if req.ChaosSeed != nil {
		plan, err := sim.DefaultChaos(*req.ChaosSeed, horizon, cfg.Cores).Generate()
		if err != nil {
			return fail(err)
		}
		bursts = append(bursts, plan.Apply(&cfg)...)
	}
	if req.Admission != nil {
		pol, err := admission.ParsePolicy(req.Admission.Policy)
		if err != nil {
			return fail(err)
		}
		cfg.Admission = admission.Config{Policy: pol, MaxQueue: req.Admission.MaxQueue}
	}
	if cfg.QueueOrder, err = sim.ParseQueueOrder(req.QueueOrder); err != nil {
		return fail(err)
	}
	spec.Configure(&cfg)
	faulted := len(cfg.Faults) > 0 || len(cfg.BudgetFaults) > 0 || len(bursts) > 0

	run := func(cfg sim.Config, bursts []workload.Burst) (sim.Result, error) {
		var jobs []job.Job
		var err error
		if req.Workload != nil {
			sc := *req.Workload
			sc.Bursts = append([]workloadspec.BurstSpec(nil), req.Workload.Bursts...)
			for _, b := range bursts {
				sc.Bursts = append(sc.Bursts, workloadspec.BurstSpec{Start: b.Start, End: b.End, Multiplier: b.Multiplier})
			}
			jobs, err = workloadspec.Compile(&sc)
		} else {
			wlc := wl
			wlc.Bursts = bursts
			jobs, err = workload.Generate(wlc)
		}
		if err != nil {
			return sim.Result{}, err
		}
		return sim.Run(cfg, jobs, spec.New())
	}
	res, err := run(cfg, bursts)
	if err != nil {
		return fail(err)
	}
	resp := SimResponse{
		Policy:           res.Policy,
		NormQuality:      res.NormQuality,
		Quality:          res.Quality,
		EnergyJ:          res.Energy,
		PeakPowerW:       res.PeakPower,
		BudgetViolations: res.BudgetViolations,
		Arrived:          res.Arrived,
		Completed:        res.Completed,
		Deadlined:        res.Deadlined,
		Discarded:        res.Discarded,
		Shed:             res.Shed,
		Requeued:         res.Requeued,
		Invocations:      res.Invocation,
		SpanS:            res.Span,
		Classes:          res.Classes,
	}
	if faulted {
		if err := ctx.Err(); err != nil {
			return fail(err) // request timed out or client left: skip the twin
		}
		twinCfg := cfg
		twinCfg.Faults = nil
		twinCfg.BudgetFaults = nil
		twin, err := run(twinCfg, nil)
		if err != nil {
			return fail(err)
		}
		report := metrics.Resilience(twin, res)
		resp.Resilience = &report
	}
	// The provenance manifest fingerprints the exact engine config the run
	// used.
	entry := ledger.ServerEntry(&cfg, spec.Name, res)
	entry.Seed = req.Seed
	entry.DurationS = horizon
	if req.Workload != nil {
		entry.Workload = req.Workload.Name
		if raw, err := json.Marshal(req.Workload); err == nil {
			entry.WorkloadHash = ledger.HashBytes(raw)
		}
	}
	return resp, entry, nil
}

func decodeBody(r *http.Request, dst any) error {
	if r.Body == nil {
		return nil
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil && err.Error() != "EOF" {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// writeDecodeError maps a body-decoding failure to its status: 413 when
// the hardening stack's size limit tripped, 400 otherwise.
func writeDecodeError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// ErrorBody is the unified error envelope every failing route returns:
//
//	{"error": {"code": "invalid_config", "message": "sim: need at least one core, got 0"}}
//
// Codes are stable machine-readable identifiers; messages are for humans.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope wraps ErrorBody under the "error" key.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// errorCode maps a response status (and error type) to the envelope code.
// Typed configuration errors get their own code regardless of status, so
// clients can distinguish "your parameters are invalid" from other 400s.
func errorCode(status int, err error) string {
	if _, ok := cfgerr.As(err); ok {
		return "invalid_config"
	}
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusTooManyRequests:
		return "rate_limited"
	case http.StatusServiceUnavailable:
		return "timeout"
	default:
		return "internal"
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorEnvelope{Error: ErrorBody{Code: errorCode(status, err), Message: err.Error()}})
}

// envelopeRouterErrors intercepts the plain-text 404/405 responses the
// stdlib mux emits for unmatched routes and re-emits them as the JSON
// error envelope. Handler-written errors are already JSON (writeError
// sets the Content-Type before the status), so they pass through
// untouched.
func envelopeRouterErrors(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(&envelopeWriter{ResponseWriter: w}, r)
	})
}

type envelopeWriter struct {
	http.ResponseWriter
	rewriting bool // swallowing the router's plain-text body
}

func (w *envelopeWriter) WriteHeader(status int) {
	routerError := status == http.StatusNotFound || status == http.StatusMethodNotAllowed
	if !routerError || strings.HasPrefix(w.Header().Get("Content-Type"), "application/json") {
		w.ResponseWriter.WriteHeader(status)
		return
	}
	w.rewriting = true
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Del("Content-Length")
	w.ResponseWriter.WriteHeader(status)
	msg := "not found"
	if status == http.StatusMethodNotAllowed {
		msg = "method not allowed"
	}
	_ = json.NewEncoder(w.ResponseWriter).Encode(
		ErrorEnvelope{Error: ErrorBody{Code: errorCode(status, nil), Message: msg}})
}

func (w *envelopeWriter) Write(p []byte) (int, error) {
	if w.rewriting {
		return len(p), nil // drop the router's plain-text body
	}
	return w.ResponseWriter.Write(p)
}
