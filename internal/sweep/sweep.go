// Package sweep fans a simulation parameter grid (arrival rate × cores ×
// power budget × policy × seed) across a bounded worker pool. Each cell is
// an independent deterministic simulation — a single server or, when the
// grid asks for a fleet, a whole cluster run — so cells parallelize
// perfectly and the report is bit-identical for any worker count: results
// land in slots indexed by the cell's position in the deterministic grid
// order, never in completion order.
package sweep

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"sync"
	"time"

	"dessched/internal/admission"
	"dessched/internal/cfgerr"
	"dessched/internal/cluster"
	"dessched/internal/hashing"
	"dessched/internal/job"
	"dessched/internal/quality"
	"dessched/internal/sim"
	"dessched/internal/telemetry"
	"dessched/internal/workload"
	"dessched/internal/workloadspec"
)

// Schema identifies the report format for downstream tooling.
const Schema = "dessched-sweep/v1"

// Grid is the cartesian parameter space to sweep. Empty axes default to a
// single paper-setup value, so the zero Grid is one cell.
type Grid struct {
	Rates    []float64 `json:"rates"`     // arrival rates, req/s
	Cores    []int     `json:"cores"`     // cores per server
	Budgets  []float64 `json:"budgets_w"` // per-server power budgets, W
	Policies []string  `json:"policies"`  // policy specs (see cluster.ParsePolicy)
	Seeds    []uint64  `json:"seeds"`     // workload RNG seeds

	// Duration is the stream length per cell, seconds (default 60 — short
	// enough that a 64-cell grid stays interactive).
	Duration float64 `json:"duration_s"`

	// Servers > 1 turns every cell into a cluster run of that fleet size;
	// Dispatch, GlobalBudgetFrac, and Epoch then configure the cluster
	// layer. GlobalBudgetFrac scales the fleet's summed nominal budgets
	// into the global budget (0 = no hierarchy).
	Servers          int     `json:"servers,omitempty"`
	Dispatch         string  `json:"dispatch,omitempty"`
	GlobalBudgetFrac float64 `json:"global_budget_frac,omitempty"`
	Epoch            float64 `json:"epoch_s,omitempty"`

	// QueueOrder applies one ready-queue discipline (registry name: fcfs,
	// sjf, edf, prio-sjf, prio-edf) to every cell's engine. Scalar, not an
	// axis: it preserves the canonical cell order. Empty means fcfs.
	QueueOrder string `json:"queue_order,omitempty"`

	// Admission applies one admission policy (none, tail-drop,
	// quality-aware, priority) with queue bound MaxQueue to every cell.
	Admission string `json:"admission,omitempty"`
	MaxQueue  int    `json:"max_queue,omitempty"`

	// Workload replaces the default single-rate generator with a declarative
	// dessched-workload/v1 spec: every cell compiles the spec with the cell's
	// seed and the grid's duration, so the Rates axis no longer applies (the
	// spec fixes per-class rates) and cells carry a placeholder rate of 0.
	// Per-class quality functions from the spec flow into every cell's
	// simulation, and CellResult.Classes breaks each cell out per class.
	Workload *workloadspec.Spec `json:"workload,omitempty"`
}

func (g Grid) withDefaults() Grid {
	if len(g.Rates) == 0 {
		if g.Workload != nil {
			g.Rates = []float64{0} // placeholder: the spec fixes per-class rates
		} else {
			g.Rates = []float64{90}
		}
	}
	if len(g.Cores) == 0 {
		g.Cores = []int{16}
	}
	if len(g.Budgets) == 0 {
		g.Budgets = []float64{320}
	}
	if len(g.Policies) == 0 {
		g.Policies = []string{"des"}
	}
	if len(g.Seeds) == 0 {
		g.Seeds = []uint64{1}
	}
	if g.Duration == 0 {
		g.Duration = 60
	}
	if g.Servers == 0 {
		g.Servers = 1
	}
	return g
}

// Validate reports grid errors as typed *cfgerr.Error values.
func (g Grid) Validate() error {
	if g.Workload != nil {
		if len(g.Rates) > 0 {
			return cfgerr.New("sweep", "rates", "sweep: rates axis cannot be combined with a workload spec (the spec fixes per-class rates)")
		}
		if err := g.Workload.Validate(); err != nil {
			return err
		}
	}
	g = g.withDefaults()
	for _, r := range g.Rates {
		if g.Workload != nil {
			break // placeholder rate; the spec was validated above
		}
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return cfgerr.New("sweep", "rates", "sweep: rate must be positive and finite, got %g", r)
		}
	}
	for _, c := range g.Cores {
		if c <= 0 {
			return cfgerr.New("sweep", "cores", "sweep: need at least one core, got %d", c)
		}
	}
	for _, b := range g.Budgets {
		if b <= 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return cfgerr.New("sweep", "budgets", "sweep: power budget must be positive and finite, got %g", b)
		}
	}
	for _, p := range g.Policies {
		if _, err := cluster.ParsePolicy(p); err != nil {
			return err
		}
	}
	if g.Duration <= 0 || math.IsNaN(g.Duration) || math.IsInf(g.Duration, 0) {
		return cfgerr.New("sweep", "duration", "sweep: duration must be positive and finite, got %g", g.Duration)
	}
	if g.Servers < 1 {
		return cfgerr.New("sweep", "servers", "sweep: need at least one server, got %d", g.Servers)
	}
	if dp, err := cluster.ParseDispatch(g.Dispatch); err != nil {
		return err
	} else if dp == cluster.ByClass && g.Servers > 1 && g.Workload == nil {
		return cfgerr.New("sweep", "dispatch", "sweep: by-class dispatch needs a workload spec to name the class partitions")
	}
	if g.GlobalBudgetFrac < 0 || g.GlobalBudgetFrac > 1 || math.IsNaN(g.GlobalBudgetFrac) {
		return cfgerr.New("sweep", "global_budget_frac", "sweep: global budget fraction must be in [0, 1], got %g", g.GlobalBudgetFrac)
	}
	if _, err := sim.ParseQueueOrder(g.QueueOrder); err != nil {
		return err
	}
	ap, err := admission.ParsePolicy(g.Admission)
	if err != nil {
		return err
	}
	if ap != admission.None && g.MaxQueue <= 0 {
		return cfgerr.New("sweep", "max_queue", "sweep: admission policy %s needs max_queue > 0, got %d", ap, g.MaxQueue)
	}
	if ap == admission.None && g.MaxQueue != 0 {
		return cfgerr.New("sweep", "max_queue", "sweep: max_queue is only meaningful with an admission policy")
	}
	return nil
}

// FingerprintGrid is the identity of the grid g runs, defaults filled in:
// an FNV-1a hash of every axis (rates, cores, budgets, policies, seeds),
// the duration, and every scalar that shapes a cell — servers, dispatch,
// global budget fraction, epoch, queue order, admission and its queue
// bound, and the workload spec. A name counts by the registry entry it
// names, so an alias fingerprints like its canonical name. Run ledgers
// stamp sweep entries with it.
func FingerprintGrid(g Grid) uint64 {
	g = g.withDefaults()
	f := hashing.New()
	f.Int(len(g.Rates))
	for _, r := range g.Rates {
		f.F64(r)
	}
	f.Int(len(g.Cores))
	for _, c := range g.Cores {
		f.Int(c)
	}
	f.Int(len(g.Budgets))
	for _, b := range g.Budgets {
		f.F64(b)
	}
	f.Int(len(g.Policies))
	for _, p := range g.Policies {
		if spec, err := cluster.ParsePolicy(p); err == nil {
			p = spec.Name
		}
		f.Str(p)
	}
	f.Int(len(g.Seeds))
	for _, s := range g.Seeds {
		f.U64(s)
	}
	f.F64(g.Duration)
	f.Int(g.Servers)
	dispatch, _ := cluster.ParseDispatch(g.Dispatch)
	f.Int(int(dispatch))
	f.F64(g.GlobalBudgetFrac)
	f.F64(g.Epoch)
	order, _ := sim.ParseQueueOrder(g.QueueOrder)
	f.Int(int(order))
	ap, _ := admission.ParsePolicy(g.Admission)
	f.Int(int(ap))
	f.Int(g.MaxQueue)
	f.Bool(g.Workload != nil)
	if g.Workload != nil {
		// Every cell sets the spec's seed and duration from the grid,
		// which is hashed above. A validated spec holds no NaN or
		// infinity, so it always encodes.
		spec := *g.Workload
		spec.Seed, spec.Duration = 0, 0
		raw, _ := json.Marshal(&spec)
		f.Str(string(raw))
	}
	return f.Sum()
}

// applySLO installs the grid's scalar SLO knobs (queue order, admission,
// class priorities from the workload spec) on one cell's engine config.
// The grid must already be validated.
func (g Grid) applySLO(cfg *sim.Config) {
	order, _ := sim.ParseQueueOrder(g.QueueOrder)
	cfg.QueueOrder = order
	ap, _ := admission.ParsePolicy(g.Admission)
	if ap != admission.None {
		cfg.Admission = admission.Config{Policy: ap, MaxQueue: g.MaxQueue}
	}
	if g.Workload != nil {
		cfg.ClassPriority = g.Workload.PriorityByClass()
	}
}

// Cell is one point of the grid.
type Cell struct {
	Index  int     `json:"index"`
	Rate   float64 `json:"rate"`
	Cores  int     `json:"cores"`
	Budget float64 `json:"budget_w"`
	Policy string  `json:"policy"`
	Seed   uint64  `json:"seed"`
}

// Cells enumerates the grid in its canonical order — rates outermost,
// seeds innermost — which is also the order of Report.Cells regardless of
// how many workers executed the sweep.
func (g Grid) Cells() []Cell {
	g = g.withDefaults()
	cells := make([]Cell, 0, len(g.Rates)*len(g.Cores)*len(g.Budgets)*len(g.Policies)*len(g.Seeds))
	for _, r := range g.Rates {
		for _, c := range g.Cores {
			for _, b := range g.Budgets {
				for _, p := range g.Policies {
					for _, s := range g.Seeds {
						cells = append(cells, Cell{
							Index: len(cells), Rate: r, Cores: c, Budget: b, Policy: p, Seed: s,
						})
					}
				}
			}
		}
	}
	return cells
}

// CellResult is one simulated cell. For cluster cells the quality/energy
// fields aggregate the whole fleet and PeakPower is the sum of per-server
// peaks.
type CellResult struct {
	Cell
	Servers     int     `json:"servers"`
	NormQuality float64 `json:"norm_quality"`
	Quality     float64 `json:"quality"`
	Energy      float64 `json:"energy_j"`
	PeakPower   float64 `json:"peak_power_w"`
	Arrived     int     `json:"arrived"`
	Completed   int     `json:"completed"`
	Deadlined   int     `json:"deadlined"`
	Shed        int     `json:"shed"`
	Events      int     `json:"events"`

	// Classes breaks the cell out per SLO job class for classed workloads
	// (nil otherwise), sorted by class name. Omitted from CSV reports; use
	// JSON for per-class columns.
	Classes []sim.ClassResult `json:"classes,omitempty"`

	// Telemetry is the cell's metrics snapshot when Options.Telemetry is
	// set: the full per-run sim collector for single-server cells,
	// result-level gauges for cluster cells.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// Options tunes sweep execution without affecting results.
type Options struct {
	// Workers bounds concurrent cells (0 = GOMAXPROCS). Result ordering
	// and values are identical for any worker count.
	Workers int

	// Telemetry attaches a metrics snapshot to every cell.
	Telemetry bool
}

// Report is a completed sweep.
type Report struct {
	Schema      string       `json:"schema"`
	Grid        Grid         `json:"grid"`
	Workers     int          `json:"workers"`
	WallSeconds float64      `json:"wall_seconds"`
	CellsPerSec float64      `json:"cells_per_sec"`
	Cells       []CellResult `json:"cells"`
}

// Run executes the whole grid. Cancel ctx to abort early; the error
// returned is then ctx.Err(). When several cells fail, the error of the
// lowest-index cell is returned (deterministic fail-fast).
func Run(ctx context.Context, g Grid, opts Options) (Report, error) {
	if err := g.Validate(); err != nil {
		return Report{}, err
	}
	g = g.withDefaults()
	cells := g.Cells()

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	start := time.Now()
	results := make([]CellResult, len(cells))
	errs := make([]error, len(cells))

	runCell := func(i int) {
		results[i], errs[i] = runOne(ctx, g, cells[i], opts)
	}
	if workers <= 1 {
		for i := range cells {
			if ctx != nil && ctx.Err() != nil {
				errs[i] = ctx.Err()
				continue
			}
			runCell(i)
		}
	} else {
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					if ctx != nil && ctx.Err() != nil {
						errs[i] = ctx.Err()
						continue
					}
					runCell(i)
				}
			}()
		}
		for i := range cells {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return Report{}, err
		}
	}

	wall := time.Since(start).Seconds()
	rep := Report{
		Schema:      Schema,
		Grid:        g,
		Workers:     workers,
		WallSeconds: wall,
		Cells:       results,
	}
	if wall > 0 {
		rep.CellsPerSec = float64(len(cells)) / wall
	}
	return rep, nil
}

// cellSource builds a cluster cell's lazy arrival source — the same
// generator a single-server cell materializes from, pulled one dispatch
// epoch at a time, so a cell's memory stays O(arrival window).
func cellSource(g Grid, c Cell) (job.Source, error) {
	if g.Workload != nil {
		spec := *g.Workload
		spec.Seed = c.Seed
		spec.Duration = g.Duration
		return workloadspec.NewStream(&spec)
	}
	wl := workload.DefaultConfig(c.Rate)
	wl.Duration = g.Duration
	wl.Seed = c.Seed
	return workload.NewStream(wl)
}

// runOne simulates a single cell.
func runOne(ctx context.Context, g Grid, c Cell, opts Options) (CellResult, error) {
	wantTelemetry := opts.Telemetry
	var classQuality map[string]quality.Function
	if g.Workload != nil {
		spec := *g.Workload
		spec.Seed = c.Seed
		spec.Duration = g.Duration
		var err error
		classQuality, err = spec.QualityByClass()
		if err != nil {
			return CellResult{}, fmt.Errorf("cell %d: %w", c.Index, err)
		}
	}
	// Cluster cells pull their workload lazily (cellSource); single-server
	// cells compile/generate the cell's job stream up front.
	var jobs []job.Job
	if g.Servers <= 1 {
		if g.Workload != nil {
			spec := *g.Workload
			spec.Seed = c.Seed
			spec.Duration = g.Duration
			compiled, err := workloadspec.Compile(&spec)
			if err != nil {
				return CellResult{}, fmt.Errorf("cell %d: %w", c.Index, err)
			}
			jobs = compiled
		} else {
			wl := workload.DefaultConfig(c.Rate)
			wl.Duration = g.Duration
			wl.Seed = c.Seed
			generated, err := workload.Generate(wl)
			if err != nil {
				return CellResult{}, fmt.Errorf("cell %d: %w", c.Index, err)
			}
			jobs = generated
		}
	}

	out := CellResult{Cell: c, Servers: g.Servers}

	if g.Servers > 1 {
		server := sim.PaperConfig()
		server.Cores = c.Cores
		server.Budget = c.Budget
		server.Context = ctx
		server.ClassQuality = classQuality
		g.applySLO(&server)
		dispatch, _ := cluster.ParseDispatch(g.Dispatch)
		var classes []string
		if dispatch == cluster.ByClass && g.Workload != nil {
			classes = g.Workload.ClassNames()
		}
		ccfg := cluster.Config{
			Servers:      g.Servers,
			Server:       server,
			Policy:       c.Policy,
			Dispatch:     dispatch,
			Classes:      classes,
			GlobalBudget: g.GlobalBudgetFrac * float64(g.Servers) * c.Budget,
			Epoch:        g.Epoch,
			// The sweep pool already saturates the machine; nested
			// parallelism would only thrash it.
			Workers: 1,
		}
		var reg *telemetry.Registry
		if wantTelemetry {
			reg = telemetry.NewRegistry()
			ccfg.Instrument = &cluster.Instrument{Registry: reg}
		}
		src, err := cellSource(g, c)
		if err != nil {
			return CellResult{}, fmt.Errorf("cell %d: %w", c.Index, err)
		}
		res, err := cluster.RunStream(ccfg, src)
		if err != nil {
			return CellResult{}, fmt.Errorf("cell %d: %w", c.Index, err)
		}
		out.NormQuality = res.NormQuality
		out.Quality = res.Quality
		out.Energy = res.Energy
		out.PeakPower = res.PeakPowerSum
		out.Arrived = res.Arrived
		out.Completed = res.Completed
		out.Deadlined = res.Deadlined
		out.Shed = res.Shed
		out.Events = res.Events
		out.Classes = res.Classes
		if wantTelemetry {
			// The cluster folded per-server sim_* metrics (labeled by
			// server) and cluster_* summary gauges into reg; attach the
			// merged snapshot as-is.
			snap := reg.Snapshot()
			out.Telemetry = &snap
		}
		return out, nil
	}

	spec, err := cluster.ParsePolicy(c.Policy)
	if err != nil {
		return CellResult{}, err
	}
	cfg := sim.PaperConfig()
	cfg.Cores = c.Cores
	cfg.Budget = c.Budget
	cfg.Context = ctx
	cfg.ClassQuality = classQuality
	spec.Configure(&cfg)
	g.applySLO(&cfg)

	var col *telemetry.SimCollector
	var reg *telemetry.Registry
	if wantTelemetry {
		reg = telemetry.NewRegistry()
		col = telemetry.NewSimCollector(reg, cfg.Cores)
		cfg.Observer = col.Observe
		cfg.Recorder = col
	}
	res, err := sim.Run(cfg, jobs, spec.New())
	if err != nil {
		return CellResult{}, fmt.Errorf("cell %d: %w", c.Index, err)
	}
	out.NormQuality = res.NormQuality
	out.Quality = res.Quality
	out.Energy = res.Energy
	out.PeakPower = res.PeakPower
	out.Arrived = res.Arrived
	out.Completed = res.Completed
	out.Deadlined = res.Deadlined
	out.Shed = res.Shed
	out.Events = res.Events
	out.Classes = res.Classes
	if col != nil {
		col.Finish(res)
		snap := reg.Snapshot()
		out.Telemetry = &snap
	}
	return out, nil
}

// WriteJSON writes the report as indented JSON.
func WriteJSON(w io.Writer, rep Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteCSV writes one row per cell (telemetry snapshots are omitted; use
// JSON for those).
func WriteCSV(w io.Writer, rep Report) error {
	cw := csv.NewWriter(w)
	header := []string{
		"index", "rate", "cores", "budget_w", "policy", "seed", "servers",
		"norm_quality", "quality", "energy_j", "peak_power_w",
		"arrived", "completed", "deadlined", "shed", "events",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, c := range rep.Cells {
		row := []string{
			strconv.Itoa(c.Index), f(c.Rate), strconv.Itoa(c.Cores), f(c.Budget),
			c.Policy, strconv.FormatUint(c.Seed, 10), strconv.Itoa(c.Servers),
			f(c.NormQuality), f(c.Quality), f(c.Energy), f(c.PeakPower),
			strconv.Itoa(c.Arrived), strconv.Itoa(c.Completed),
			strconv.Itoa(c.Deadlined), strconv.Itoa(c.Shed), strconv.Itoa(c.Events),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
