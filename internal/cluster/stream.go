package cluster

import (
	"math"

	"dessched/internal/cfgerr"
	"dessched/internal/hashing"
	"dessched/internal/job"
	"dessched/internal/sim"
	"dessched/internal/telemetry"
	"dessched/internal/telemetry/span"
	"dessched/internal/trace"
)

// coordinator is the sequential half of the epoch loop: validation,
// routing, hedging, demand accounting, the budget filler, and the run-level
// probes (span skeleton, dispatch decisions, merged budget windows).
// Engines never touch it; it never touches engines — the loop alternates
// between the two, so neither needs locks.
//
// Memory stays bounded by the fleet's in-flight window: per-epoch batches
// are reused and the dispatcher compacts its accounting. Only the optional
// hedge-pair bookkeeping (cap it with Hedge.Limit) and the probes a job
// slice admits (Instrument.Traces) grow with the number of jobs.
type coordinator struct {
	cfg     Config
	spec    PolicySpec
	server  sim.Config // configured template (spec.Configure applied)
	nominal float64
	outages [][][]interval
	dp      *dispatcher
	filler  *epochFiller // nil when GlobalBudget <= 0

	validator   job.StreamValidator
	batches     [][]job.Job // current epoch's per-server arrivals (reused)
	demand      []float64   // current epoch's per-server demand (filler only)
	fracs       []float64   // current epoch's per-server budget fractions
	jobs        []int       // arrivals dispatched per server, cumulative
	rerouted    int
	horizon     float64 // max deadline seen
	lastRelease float64
	fed         int
	hash        hashing.FNV1a // rolling hash of the arrivals, while hashJobs
	hashJobs    bool

	srcDone bool
	nBudget int // budget epochs = ⌈horizon/ε⌉, valid once srcDone
	n       int // total epochs to run, valid once srcDone

	// Hedging: pairs in dispatch order, the hedged-ID set, and per-server
	// watch/capture maps the engine observers fill at departure time.
	hedging  bool
	pairs    []hedgePair
	seen     map[job.ID]bool
	watch    []map[job.ID]bool
	captured []map[job.ID]sim.JobOutcome

	// Span skeleton: the "cluster" root and its "dispatch" summary, with
	// one "epoch" span per budget fill recorded as the loop goes.
	tracer         *span.Tracer
	root, dispatch span.ID

	// Instrument.Traces: every routing decision, and each server's budget
	// windows with adjacent equal-fraction epochs merged (openFrac 1 = no
	// window open).
	traces     bool
	dispatched []telemetry.DispatchEvent
	windows    [][]sim.BudgetFault
	openFrac   []float64
	openStart  []float64
}

// newCoordinator prepares the coordinator of a run. materialized marks a
// job-slice source: hedged runs then collect per-job outcomes.
func newCoordinator(cfg Config, materialized bool) *coordinator {
	cfg = cfg.withDefaults()
	spec, _ := cfg.PolicySpec()
	server := cfg.Server
	if spec.Configure != nil {
		spec.Configure(&server)
	}
	if materialized && cfg.Hedge.Enabled() {
		server.CollectJobs = true
	}
	outages := make([][][]interval, cfg.Servers)
	for s := 0; s < cfg.Servers; s++ {
		if len(cfg.Faults) > 0 {
			outages[s] = mergedOutages(server.Cores, cfg.Faults[s])
		}
	}
	c := &coordinator{
		cfg:      cfg,
		spec:     spec,
		server:   server,
		nominal:  server.Budget,
		outages:  outages,
		dp:       newDispatcher(cfg.Dispatch, cfg.Servers, server.Cores, outages, cfg.Classes),
		batches:  make([][]job.Job, cfg.Servers),
		jobs:     make([]int, cfg.Servers),
		hash:     hashing.New(),
		hashJobs: cfg.StreamCheckpoint != nil, // only snapshots (and a resume's prefix check) read the hash
		hedging:  cfg.Hedge.Enabled() && cfg.Servers >= 2,
		root:     span.NoSpan,
		dispatch: span.NoSpan,
	}
	if cfg.GlobalBudget > 0 {
		c.filler = newEpochFiller(cfg.Servers, server, cfg.GlobalBudget, cfg.Epoch, cfg.Headroom, outages)
		c.demand = make([]float64, cfg.Servers)
		c.fracs = make([]float64, cfg.Servers)
	}
	if c.hedging {
		c.seen = make(map[job.ID]bool)
		c.watch = make([]map[job.ID]bool, cfg.Servers)
		c.captured = make([]map[job.ID]sim.JobOutcome, cfg.Servers)
		for s := range c.watch {
			c.watch[s] = make(map[job.ID]bool)
			c.captured[s] = make(map[job.ID]sim.JobOutcome)
		}
	}
	if ins := cfg.Instrument; ins != nil {
		if tr := ins.Tracer; tr != nil {
			c.tracer = tr
			c.root = tr.StartUnsampled(span.NoSpan, "cluster", 0)
			tr.Int(c.root, "servers", cfg.Servers)
			tr.String(c.root, "policy", spec.Name)
			tr.String(c.root, "dispatch", cfg.Dispatch.String())
			tr.Float(c.root, "global_budget_w", cfg.GlobalBudget)
			c.dispatch = tr.StartUnsampled(c.root, "dispatch", 0)
		}
		if ins.Traces {
			c.traces = true
			c.windows = make([][]sim.BudgetFault, cfg.Servers)
			c.openFrac = make([]float64, cfg.Servers)
			c.openStart = make([]float64, cfg.Servers)
			for s := range c.openFrac {
				c.openFrac[s] = 1
			}
		}
	}
	return c
}

// epochEnd is the right edge of dispatch epoch e.
func (c *coordinator) epochEnd(e int) float64 { return float64(e)*c.cfg.Epoch + c.cfg.Epoch }

// ingest routes one epoch's arrivals: per job, in order — validate, fold
// into the rolling hash when hashJobs, route, account demand and horizon,
// and apply the hedging rules.
func (c *coordinator) ingest(epoch int, arr []job.Job) error {
	for s := range c.batches {
		c.batches[s] = c.batches[s][:0]
	}
	for s := range c.demand {
		c.demand[s] = 0
	}
	t1 := c.epochEnd(epoch)
	for _, j := range arr {
		if err := c.validator.Check(j); err != nil {
			return err
		}
		if j.Release >= t1 {
			return cfgerr.New("cluster", "source", "cluster: source returned a job released at %g past the epoch end %g", j.Release, t1)
		}
		if c.hashJobs {
			c.hash.U64(uint64(j.ID))
			c.hash.F64(j.Release)
			c.hash.F64(j.Deadline)
			c.hash.F64(j.Demand)
			c.hash.Bool(j.Partial)
			if j.Class != "" {
				c.hash.Str(j.Class)
			}
		}
		s, moved := c.dp.route(j)
		if moved {
			c.rerouted++
		}
		if c.traces {
			c.dispatched = append(c.dispatched, telemetry.DispatchEvent{Time: j.Release, Job: int64(j.ID), Server: s, Rerouted: moved})
		}
		c.place(j, s)
		if j.Deadline > c.horizon {
			c.horizon = j.Deadline
		}
		c.lastRelease = j.Release
		c.fed++
		c.maybeHedge(j, s)
	}
	return nil
}

// place appends a job (or replica) to a server's epoch batch with demand
// and count accounting.
func (c *coordinator) place(j job.Job, s int) {
	c.batches[s] = append(c.batches[s], j)
	c.jobs[s]++
	if c.filler != nil {
		c.demand[s] += j.Demand
	}
}

// maybeHedge applies the hedged-dispatch rules to one routed arrival: a job
// whose deadline window is within Hedge.Window gets a replica on the next
// up server after its primary.
func (c *coordinator) maybeHedge(j job.Job, p int) {
	h := c.cfg.Hedge
	if !c.hedging || j.Deadline-j.Release > h.Window || c.seen[j.ID] {
		return
	}
	if h.Limit > 0 && len(c.pairs) >= h.Limit {
		return
	}
	sec := -1
	for d := 1; d < c.cfg.Servers; d++ {
		q := (p + d) % c.cfg.Servers
		if serverUp(c.server.Cores, c.outages[q], j.Release) {
			sec = q
			break
		}
	}
	if sec < 0 {
		return
	}
	c.seen[j.ID] = true
	c.pairs = append(c.pairs, hedgePair{id: j.ID, demand: j.Demand, class: j.Class, primary: p, secondary: sec})
	c.place(j, sec)
	c.watch[p][j.ID] = true
	c.watch[sec][j.ID] = true
}

// noteDone records the source's exhaustion after an epoch's ingest: the
// horizon is final, so the budget-epoch count ⌈horizon/ε⌉ and the total
// epochs to run become known. Without a global budget there is nothing to
// water-fill past the last arrival, so the run stops after the current
// epoch.
func (c *coordinator) noteDone(epoch int) {
	if c.srcDone {
		return
	}
	c.srcDone = true
	if c.filler != nil && c.horizon > 0 {
		c.nBudget = int(math.Ceil(c.horizon / c.cfg.Epoch))
	}
	c.n = c.nBudget
	if c.n < epoch+1 {
		c.n = epoch + 1
	}
}

// fillable reports whether epoch e lies on the budget grid ⌈horizon/ε⌉
// epochs long, over which the filler runs.
func (c *coordinator) fillable(e int) bool {
	return c.filler != nil && (!c.srcDone || e < c.nBudget)
}

// fill water-fills epoch e and returns each server's budget fraction (the
// coordinator's scratch slice, valid until the next call), recording the
// epoch's span and budget windows when those probes are attached.
func (c *coordinator) fill(e int) []float64 {
	assigned := c.filler.fill(e, c.demand)
	t0, t1 := float64(e)*c.cfg.Epoch, c.epochEnd(e)
	if c.tracer != nil {
		level, total := 0.0, 0.0
		for _, a := range assigned {
			if a > level {
				level = a
			}
			total += a
		}
		ep := c.tracer.StartUnsampled(c.root, "epoch", t0)
		c.tracer.Int(ep, "epoch", e)
		c.tracer.Float(ep, "water_level_w", level)
		c.tracer.Float(ep, "used_w", total)
		c.tracer.Float(ep, "leftover_w", c.cfg.GlobalBudget-total)
		c.tracer.End(ep, t1)
	}
	for s, a := range assigned {
		frac := budgetFrac(a, c.nominal)
		c.fracs[s] = frac
		if c.traces && frac != c.openFrac[s] {
			c.closeWindow(s, t0)
			c.openFrac[s], c.openStart[s] = frac, t0
		}
	}
	return c.fracs
}

// closeWindow ends server s's open budget window at end; full-budget
// stretches record nothing.
func (c *coordinator) closeWindow(s int, end float64) {
	if c.openFrac[s] < 1 && end > c.openStart[s] {
		c.windows[s] = append(c.windows[s], sim.BudgetFault{Start: c.openStart[s], End: end, Fraction: c.openFrac[s]})
	}
}

// finishBudget closes the budget grid after the last epoch and returns each
// server's time-averaged effective budget, watts.
func (c *coordinator) finishBudget() []float64 {
	if c.filler == nil || c.nBudget == 0 {
		shareW := make([]float64, c.cfg.Servers)
		for s := range shareW {
			shareW[s] = c.nominal
		}
		return shareW
	}
	if c.traces {
		end := float64(c.nBudget) * c.cfg.Epoch
		for s := range c.windows {
			c.closeWindow(s, end)
		}
	}
	return c.filler.finishShares(c.nBudget)
}

// endSpans closes the span skeleton once the run is complete.
func (c *coordinator) endSpans() {
	if c.tracer == nil {
		return
	}
	c.tracer.End(c.root, c.horizon)
	c.tracer.Int(c.dispatch, "jobs", c.fed)
	c.tracer.Int(c.dispatch, "rerouted", c.rerouted)
	if c.fed > 0 {
		c.tracer.End(c.dispatch, c.lastRelease)
	}
}

// hedgeObserver returns the engine observer capturing hedged replicas'
// terminal outcomes on server s: the first terminal event of a watched job
// ID records the fields hedge resolution needs. It runs inside server s's
// engine goroutine; the maps are only read by the coordinator after the
// final barrier.
func (c *coordinator) hedgeObserver(s int) sim.Observer {
	watch, captured := c.watch[s], c.captured[s]
	return func(ev sim.Event) {
		var reason sim.DepartReason
		switch ev.Kind {
		case sim.EvComplete:
			reason = sim.Completed
		case sim.EvDeadline:
			reason = sim.DeadlineHit
		case sim.EvDiscard:
			reason = sim.PolicyDiscard
		case sim.EvShed:
			reason = sim.Shed
		case sim.EvAbandon:
			reason = sim.Abandoned
		default:
			return
		}
		if !watch[ev.Job] {
			return
		}
		if _, dup := captured[ev.Job]; dup {
			return
		}
		captured[ev.Job] = sim.JobOutcome{ID: ev.Job, Class: ev.Class, Quality: ev.Quality, DepartAt: ev.Time, Reason: reason}
	}
}

// serverCfg builds server s's engine config: the configured template plus
// its fault schedule and the run's per-server probes and hedge capture
// hook.
func (c *coordinator) serverCfg(s int, probes []serverProbes) sim.Config {
	scfg := c.server
	if len(c.cfg.Faults) > 0 {
		scfg.Faults = c.cfg.Faults[s]
	}
	var observers []sim.Observer
	var recorders []sim.Recorder
	if ins := c.cfg.Instrument; ins != nil {
		p := &probes[s]
		if ins.Tracer != nil {
			// Child derives a per-server tracer: a plain bounded tracer
			// from a plain parent, a seeded per-server sampler from a
			// sampling parent — either way grafted back with Adopt in
			// index order after the final barrier, so the merged trace is
			// bit-identical for any Workers.
			p.tracer = ins.Tracer.Child(s)
			p.root = p.tracer.StartUnsampled(span.NoSpan, "server", 0)
			p.tracer.Int(p.root, "server", s)
			observers = append(observers, span.Observe(p.tracer, p.root))
		}
		if ins.Flight != nil {
			p.flight = ins.Flight.Child(s)
			observers = append(observers, p.flight.Observe)
		}
		if ins.Series != nil {
			p.rec = telemetry.NewSeriesRecorder(ins.Series.Cap())
			p.rec.OnSample = ins.Series.OnSample
			p.sampler = telemetry.NewEpochSampler(p.rec, s, c.cfg.Epoch, scfg)
			observers = append(observers, p.sampler.Observe)
			recorders = append(recorders, p.sampler)
		}
		if ins.Registry != nil {
			p.reg = telemetry.NewRegistry()
			p.col = telemetry.NewSimCollector(p.reg, scfg.Cores)
			observers = append(observers, p.col.Observe)
			recorders = append(recorders, p.col)
		}
		if ins.Traces {
			p.trace = trace.New(scfg.Cores)
			recorders = append(recorders, p.trace)
		}
	}
	if c.hedging {
		observers = append(observers, c.hedgeObserver(s))
	}
	switch len(observers) {
	case 0:
	case 1:
		scfg.Observer = observers[0]
	default:
		scfg.Observer = telemetry.MultiObserver(observers...)
	}
	switch len(recorders) {
	case 0:
	case 1:
		scfg.Recorder = recorders[0]
	default:
		scfg.Recorder = telemetry.MultiRecorder(recorders...)
	}
	return scfg
}
