// Command desim drives the DES scheduler reproduction: it lists and runs
// the paper's evaluation experiments (one per figure), and runs one-off
// simulations with any policy/architecture combination.
//
// Usage:
//
//	desim list
//	desim run -exp fig3 [-duration 60] [-seed 1] [-rates 100,140,180] [-paper] [-out results.txt]
//	desim run -all [-quick]
//	desim sim -policy des -rate 120 [-cores 16] [-budget 320]
//	          [-workload spec.json|trace.csv]
//	          [-discrete] [-duration 60] [-seed 1] [-partial 1.0] [-trace out.csv]
//	          [-chaos-seed 1 -mttr 0.5] [-retry-max 3 -retry-backoff 0.05]
//	          [-checkpoint snap.json -checkpoint-every 5] [-resume snap.json]
//	          [-telemetry metrics.prom] [-perfetto trace.json]
//	          [-live] [-epoch 1] [-spans spans.json] [-series series.csv]
//	          [-servers 8 -dispatch rr -global-budget 2000]
//	          [-hedge-window 0.2 -hedge-limit 100]
//	desim chaos -seed 1 [-policy des] [-rate 120] [-duration 30] [-cores 16] [-budget 320]
//	            [-core-faults 3] [-budget-faults 1] [-bursts 1]
//	            [-mttr 0.5] [-retry-max 3 -retry-backoff 0.05]
//	            [-admission quality-aware -max-queue 64]
//	desim sweep [-rates 60,90,120] [-cores 16] [-budgets 320] [-policies des,fcfs-wf]
//	            [-seeds 1,2] [-duration 60] [-workers 8] [-servers 8] [-dispatch rr]
//	            [-global-frac 0.85] [-workload spec.json] [-out report.json] [-csv report.csv]
//	desim workload -validate examples/workloads/*.json
//	desim workload -describe spec.json
//	desim workload -generate spec.json -out trace.csv [-seed 7] [-duration 120]
//	desim verify [-duration 40]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dessched"
	"dessched/internal/admission"
	"dessched/internal/cluster"
	"dessched/internal/experiments"
	"dessched/internal/plot"
	"dessched/internal/power"
	"dessched/internal/sim"
	"dessched/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "run":
		err = cmdRun(os.Args[2:])
	case "sim":
		err = cmdSim(os.Args[2:])
	case "chaos":
		err = cmdChaos(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "tournament":
		err = cmdTournament(os.Args[2:])
	case "workload":
		err = cmdWorkload(os.Args[2:])
	case "ledger":
		err = cmdLedger(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "desim: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "desim:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  desim list                          list experiments (paper figures)
  desim run -exp <id> [flags]         regenerate one figure
  desim run -all [flags]              regenerate every figure
  desim sim [flags]                   run a single simulation
  desim chaos [flags]                 seeded fault-injection soak + resilience report
  desim sweep [flags]                 fan a parameter grid across a worker pool
  desim tournament [flags]            race policies on one workload, report per-class dominance
  desim workload [flags] <files>      validate/describe/compile declarative workload specs
  desim ledger list|show|diff [flags] query the run-provenance ledger (results/ledger.jsonl)
  desim verify [-duration s]          check every paper claim; exit 1 on failure
run flags: -duration s  -seed n  -replicas n  -workers n  -rates a,b,c
           -paper  -quick  -out file  -chart  -csv dir
           (presets set the baseline; explicit flags override them)
sim flags: -policy scheduler  -discrete
           -rate r  -cores m  -budget W  -partial f  -duration s  -seed n
           -workload spec.json|trace.csv  (declarative classes / trace replay)
           -order queue-order  -admission admission  -max-queue n
           -trace file.csv  -events  -chaos-seed n  -mttr s
           -retry-max n  -retry-backoff s
           -checkpoint file.json  -checkpoint-every s  -resume file.json
           -telemetry file.prom  -perfetto file.json
           -live  -epoch s  -spans file.json  -spans-perfetto file.json
           -spans-sample f  (deterministic sampling tracer; keeps fleets lazy)
           -series file.json|.csv  -flight file.json  -ledger file.jsonl
           -servers m  -dispatch dispatch  -global-budget W
           -hedge-window s  -hedge-limit n
           (with -servers > 1, -trace/-perfetto write the cluster bundle;
            fleets pull arrivals lazily unless -trace/-perfetto/unsampled -spans)
chaos flags: -seed n  -policy scheduler  -rate r  -duration s  -cores m  -budget W
             -workload spec.json  -core-faults n  -budget-faults n  -bursts n
             -outage-frac f  -mttr s  -retry-max n  -retry-backoff s
             -order queue-order  -admission admission  -max-queue n
sweep flags: -rates a,b,c  -cores a,b  -budgets a,b  -policies p,q  -seeds a,b
             -workload spec.json (replaces -rates)  -duration s  -workers n
             -servers m  -dispatch dispatch
             -order ...  -admission ...  -max-queue n  (one SLO setting per grid)
             -global-frac f  -epoch s  -telemetry  -out file.json  -csv file.csv
tournament flags: -workload spec.json (required)  -policies p,q@order  -baseline p
                  -seeds a,b,c  -cores m  -budget W  -liveness-scale f
                  -order ...  -admission ...  -max-queue n
                  -out report.md  -json report.json
workload flags: -validate | -describe | -generate -out trace.csv
                [-seed n] [-duration s]  <spec.json|trace.csv ...>
ledger verbs: list [-n k]  |  show [idx]  |  diff [a b]   (-in file.jsonl;
              negative indexes count from the latest entry)
policy names (each also accepts its aliases; see docs/POLICIES.md):
  scheduler    %s
  queue-order  %s
  admission    %s
  dispatch     %s
`, cluster.Policies.Help(), sim.QueueOrders.Help(), admission.Policies.Help(), cluster.Dispatches.Help())
}

func cmdList() error {
	for _, e := range dessched.Experiments() {
		fmt.Printf("%-8s %-14s %s\n", e.ID, e.Paper, e.Title)
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	exp := fs.String("exp", "", "experiment id (see `desim list`)")
	all := fs.Bool("all", false, "run every experiment")
	registerRunOptionFlags(fs)
	rates := fs.String("rates", "", "comma-separated arrival-rate sweep override")
	paper := fs.Bool("paper", false, "full paper fidelity (1800 s per point)")
	quick := fs.Bool("quick", false, "smoke-test fidelity (10 s, 3 rates)")
	out := fs.String("out", "", "write results to this file instead of stdout")
	chart := fs.Bool("chart", false, "render each table as an ASCII chart")
	csvDir := fs.String("csv", "", "also write each table as CSV into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*all && *exp == "" {
		return fmt.Errorf("need -exp <id> or -all")
	}

	o, err := resolveRunOptions(fs, *paper, *quick, *rates)
	if err != nil {
		return err
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	var list []dessched.Experiment
	if *all {
		list = dessched.Experiments()
	} else {
		e, ok := dessched.ExperimentByID(*exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try `desim list`)", *exp)
		}
		list = []dessched.Experiment{e}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	for _, e := range list {
		start := time.Now()
		tabs, err := e.Run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(w, "== %s (%s) — %s [%.1fs]\n", e.ID, e.Paper, e.Title, time.Since(start).Seconds())
		for _, t := range tabs {
			t.Format(w)
			if *chart {
				if err := plot.Render(w, t, plot.Options{}); err != nil {
					return err
				}
			}
			if *csvDir != "" {
				f, err := os.Create(filepath.Join(*csvDir, t.Name+".csv"))
				if err != nil {
					return err
				}
				werr := t.WriteCSV(f)
				cerr := f.Close()
				if werr != nil {
					return werr
				}
				if cerr != nil {
					return cerr
				}
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// registerRunOptionFlags declares the option-bearing `run` flags on fs.
// resolveRunOptions reads them back by name, so registration is shared
// between cmdRun and the regression tests.
func registerRunOptionFlags(fs *flag.FlagSet) {
	fs.Float64("duration", 60, "simulated seconds per data point")
	fs.Uint64("seed", 1, "workload seed")
	fs.Int("replicas", 1, "replicate each point with consecutive seeds; >1 adds std-dev tables")
	fs.Int("workers", 0, "concurrent simulation points (0 = GOMAXPROCS)")
}

// resolveRunOptions builds the experiment options from a parsed `run` flag
// set. Presets (-paper / -quick) establish the baseline; any explicitly set
// -duration/-seed/-replicas/-workers flag then overrides the preset, so
// `desim run -all -quick -duration 20` runs the quick sweep at 20 simulated
// seconds. (Presets used to replace the options wholesale, silently
// discarding explicit flags.) -rates overrides the sweep in all cases.
func resolveRunOptions(fs *flag.FlagSet, paper, quick bool, rates string) (experiments.Options, error) {
	get := func(name string) any { return fs.Lookup(name).Value.(flag.Getter).Get() }
	o := experiments.Options{
		Duration: get("duration").(float64),
		Seed:     get("seed").(uint64),
		Replicas: get("replicas").(int),
		Workers:  get("workers").(int),
	}
	if paper {
		o = experiments.PaperOptions()
	}
	if quick {
		o = experiments.QuickOptions()
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "duration":
			o.Duration = get("duration").(float64)
		case "seed":
			o.Seed = get("seed").(uint64)
		case "replicas":
			o.Replicas = get("replicas").(int)
		case "workers":
			o.Workers = get("workers").(int)
		}
	})
	if rates != "" {
		o.Rates = nil
		for _, f := range strings.Split(rates, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return o, fmt.Errorf("bad rate %q: %w", f, err)
			}
			o.Rates = append(o.Rates, v)
		}
	}
	return o, nil
}

// cmdVerify runs the claims experiment and fails the process when any
// claim does not hold — a one-command CI gate for the reproduction.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	duration := fs.Float64("duration", 40, "simulated seconds per data point")
	seed := fs.Uint64("seed", 1, "workload seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	e, ok := dessched.ExperimentByID("claims")
	if !ok {
		return fmt.Errorf("claims experiment missing")
	}
	tabs, err := e.Run(experiments.Options{Duration: *duration, Seed: *seed})
	if err != nil {
		return err
	}
	tbl := tabs[0]
	failed := 0
	for i, r := range tbl.Rows {
		status := "PASS"
		if r.Y[2] != 1 {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%s  %s (measured %.5g, threshold %.5g)\n", status, tbl.RowLabels[i], r.Y[0], r.Y[1])
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d claims failed", failed, len(tbl.Rows))
	}
	fmt.Printf("all %d claims hold\n", len(tbl.Rows))
	return nil
}

// cmdChaos runs one seeded fault-injection soak: it samples a chaos plan,
// runs the policy through it (with optional admission-control shedding),
// runs the fault-free twin, and prints the resilience report. The same
// seed always reproduces the same plan and report.
func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "chaos + workload seed")
	rate := fs.Float64("rate", 120, "nominal arrival rate, requests/s")
	duration := fs.Float64("duration", 30, "simulated seconds of arrivals")
	cores := fs.Int("cores", 16, "number of cores")
	budget := fs.Float64("budget", 320, "dynamic power budget, W")
	policy := fs.String("policy", "des", "scheduler: "+cluster.Policies.Help())
	coreFaults := fs.Int("core-faults", 3, "number of core speed faults")
	budgetFaults := fs.Int("budget-faults", 1, "number of budget-drop windows")
	bursts := fs.Int("bursts", 1, "number of arrival-burst windows")
	outageFrac := fs.Float64("outage-frac", 0.3, "fraction of core faults that are full outages")
	pf := registerPolicyFlags(fs, policyFlags{Order: "fcfs", Admission: "none", MaxQueue: 64}, false)
	mttr := fs.Float64("mttr", 0, "mean time to repair: core faults heal after exponential repair times (0 = default fault windows)")
	retryMax := fs.Int("retry-max", 0, "max dispatch attempts for jobs evacuated from outaged cores (0 = no retry lifecycle)")
	retryBackoff := fs.Float64("retry-backoff", 0.05, "initial retry backoff, s, doubling per attempt (with -retry-max)")
	workloadFile := fs.String("workload", "", "declarative workload spec (.json) replacing the default single-rate stream; -seed/-duration override the spec's")
	ledgerPath := fs.String("ledger", "", "append a dessched-run/v1 provenance manifest of the faulted run to this JSONL file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// A spec workload soaks per-class: burst faults append to the spec's
	// rate windows and the resilience report breaks out per class. Recorded
	// traces are rejected — their arrivals cannot absorb burst faults.
	var wlSpec *dessched.WorkloadSpec
	if *workloadFile != "" {
		_, spec, err := loadWorkloadArg(*workloadFile)
		if err != nil {
			return err
		}
		if spec == nil {
			return fmt.Errorf("chaos needs a spec workload (.json), not a recorded trace")
		}
		spec.Seed = *seed
		spec.Duration = *duration
		wlSpec = spec
	}

	spec, err := dessched.ParseSchedulerPolicy(*policy)
	if err != nil {
		return err
	}
	order, err := pf.queueOrder()
	if err != nil {
		return err
	}
	admitCfg, err := pf.admissionConfig()
	if err != nil {
		return err
	}

	chaos := dessched.DefaultChaos(*seed, *duration, *cores)
	chaos.CoreFaults = *coreFaults
	chaos.BudgetFaults = *budgetFaults
	chaos.Bursts = *bursts
	chaos.OutageFraction = *outageFrac
	chaos.MTTR = *mttr
	plan, err := chaos.Generate()
	if err != nil {
		return err
	}
	fmt.Println(plan.String())

	// run returns the engine config it ran too: the ledger stamps the
	// faulted run's own config.
	run := func(faulted bool) (dessched.ServerConfig, dessched.Result, error) {
		cfg := dessched.PaperServer()
		cfg.Cores = *cores
		cfg.Budget = *budget
		spec.Configure(&cfg)
		cfg.QueueOrder = order
		if faulted {
			cfg.Admission = admitCfg
			if *retryMax > 0 {
				cfg.Retry = dessched.RetryPolicy{MaxAttempts: *retryMax, Backoff: *retryBackoff}
			}
		}
		var jobs []dessched.Job
		var err error
		if wlSpec != nil {
			sc := *wlSpec
			sc.Bursts = append([]dessched.WorkloadBurst(nil), wlSpec.Bursts...)
			if faulted {
				for _, b := range plan.Apply(&cfg) {
					sc.Bursts = append(sc.Bursts, dessched.WorkloadBurst{
						Start: b.Start, End: b.End, Multiplier: b.Multiplier,
					})
				}
			}
			if jobs, err = dessched.CompileWorkload(&sc); err != nil {
				return cfg, dessched.Result{}, err
			}
			if cfg.ClassQuality, err = dessched.WorkloadQualityByClass(&sc); err != nil {
				return cfg, dessched.Result{}, err
			}
			cfg.ClassPriority = dessched.WorkloadPriorityByClass(&sc)
		} else {
			wl := dessched.PaperWorkload(*rate)
			wl.Duration = *duration
			wl.Seed = *seed
			if faulted {
				wl.Bursts = plan.Apply(&cfg)
			}
			if jobs, err = dessched.GenerateWorkload(wl); err != nil {
				return cfg, dessched.Result{}, err
			}
		}
		res, err := dessched.Simulate(cfg, jobs, spec.New())
		return cfg, res, err
	}

	faultedCfg, faulted, err := run(true)
	if err != nil {
		return err
	}
	_, twin, err := run(false)
	if err != nil {
		return err
	}
	fmt.Println("faulted:   ", faulted.String())
	fmt.Println("fault-free:", twin.String())
	rep := dessched.Resilience(twin, faulted).WithRepair(plan.MeanTimeToRepair())
	fmt.Println(rep.String())
	for _, c := range rep.Classes {
		fmt.Printf("  class %-12s retained %.1f%% (%.4f -> %.4f), extra deadline misses %d, shed %.1f%%\n",
			c.Class, 100*c.QualityRetained, c.BaselineQuality, c.FaultedQuality,
			c.DeadlinedDelta, 100*c.ShedFraction)
	}
	if *ledgerPath != "" {
		e := dessched.ServerLedgerEntry(&faultedCfg, spec.Name, faulted)
		e.Cmd = "chaos"
		e.Seed = *seed
		e.Workload = *workloadFile
		e.WorkloadHash = hashWorkloadFile(*workloadFile)
		e.DurationS = *duration
		e.Note = fmt.Sprintf("chaos soak: quality retained %.4f vs fault-free twin", rep.QualityRetained)
		if err := recordLedger(*ledgerPath, e); err != nil {
			return err
		}
	}
	return nil
}

func cmdSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	policy := fs.String("policy", "des", "scheduler: "+cluster.Policies.Help())
	discrete := fs.Bool("discrete", false, "discrete speed scaling (0.5..3.0 GHz ladder)")
	rate := fs.Float64("rate", 120, "arrival rate, requests/s")
	cores := fs.Int("cores", 16, "number of cores")
	budget := fs.Float64("budget", 320, "dynamic power budget, W")
	partial := fs.Float64("partial", 1.0, "fraction of jobs supporting partial evaluation")
	duration := fs.Float64("duration", 60, "simulated seconds of arrivals")
	seed := fs.Uint64("seed", 1, "workload seed")
	workloadFile := fs.String("workload", "", "declarative workload: a dessched-workload/v1 spec (.json) to compile, or a recorded trace (.csv) to replay; replaces -rate/-partial")
	traceOut := fs.String("trace", "", "write the executed schedule trace to this CSV file")
	events := fs.Bool("events", false, "print simulation event counts")
	chaosSeed := fs.Uint64("chaos-seed", 0, "apply a seeded chaos fault plan to the run (0 = none)")
	telemetryOut := fs.String("telemetry", "", "write a Prometheus-format metrics snapshot of the run to this file")
	perfettoOut := fs.String("perfetto", "", "write the executed schedule as Perfetto/Chrome trace-event JSON to this file")
	servers := fs.Int("servers", 1, "fleet size; > 1 runs the cluster path (dispatcher + hierarchical budget)")
	pf := registerPolicyFlags(fs, policyFlags{Order: "fcfs", Admission: "none", MaxQueue: 64, Dispatch: "rr"}, true)
	globalBudget := fs.Float64("global-budget", 0, "global datacenter budget, W (0 = no hierarchy; with -servers > 1)")
	live := fs.Bool("live", false, "render per-epoch samples as a terminal ticker while the run executes")
	epoch := fs.Float64("epoch", 1, "epoch length for -live/-series sampling and cluster budget reflow, s")
	spansOut := fs.String("spans", "", "write the hierarchical span trace as dessched-spans/v1 JSON to this file")
	spansPerfetto := fs.String("spans-perfetto", "", "write the span trace as Perfetto/Chrome trace-event JSON to this file")
	spansSample := fs.Float64("spans-sample", 0, "keep this fraction of hot per-event spans via the deterministic sampling tracer (0 = full trace, which holds the fleet's jobs in memory)")
	seriesOut := fs.String("series", "", "write per-epoch samples to this file (.csv for CSV, else JSON)")
	flightOut := fs.String("flight", "", "arm the flight recorder and write tripped dumps as dessched-flight/v1 JSON to this file")
	ledgerPath := fs.String("ledger", "", "append a dessched-run/v1 provenance manifest to this JSONL file (see `desim ledger`)")
	retryMax := fs.Int("retry-max", 0, "max dispatch attempts for jobs evacuated from outaged cores (0 = no retry lifecycle)")
	retryBackoff := fs.Float64("retry-backoff", 0.05, "initial retry backoff, s, doubling per attempt (with -retry-max)")
	mttr := fs.Float64("mttr", 0, "chaos repair: core faults heal after exponential repair times with this mean, s (with -chaos-seed)")
	hedgeWindow := fs.Float64("hedge-window", 0, "duplicate jobs whose deadline window is at most this to a second server, s (with -servers > 1)")
	hedgeLimit := fs.Int("hedge-limit", 0, "cap on hedged jobs (0 = unlimited; with -hedge-window)")
	checkpointOut := fs.String("checkpoint", "", "write the latest engine snapshot to this file while the run executes")
	checkpointEvery := fs.Float64("checkpoint-every", 5, "simulated seconds between snapshots (with -checkpoint)")
	resumeIn := fs.String("resume", "", "resume from a snapshot file written by -checkpoint (needs the original run's exact flags)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := dessched.ParseSchedulerPolicy(*policy)
	if err != nil {
		return err
	}

	cfg := dessched.PaperServer()
	cfg.Cores = *cores
	cfg.Budget = *budget
	if *discrete {
		cfg.Ladder = power.DefaultLadder
	}
	if *retryMax > 0 {
		cfg.Retry = dessched.RetryPolicy{MaxAttempts: *retryMax, Backoff: *retryBackoff}
	}
	if err := pf.applyTo(&cfg); err != nil {
		return err
	}

	// A declarative workload replaces the default single-rate generator:
	// a spec compiles here (with explicit -seed/-duration overriding its
	// own), a trace replays as recorded. Per-class quality functions from
	// the spec flow into the server config.
	var wlJobs []dessched.Job
	var wlSpec *dessched.WorkloadSpec
	if *workloadFile != "" {
		if *resumeIn != "" {
			return fmt.Errorf("-resume carries its workload in the snapshot; drop -workload")
		}
		wlJobs, wlSpec, err = loadWorkloadArg(*workloadFile)
		if err != nil {
			return err
		}
		if wlSpec != nil {
			fs.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "seed":
					wlSpec.Seed = *seed
				case "duration":
					wlSpec.Duration = *duration
				}
			})
			if wlJobs, err = dessched.CompileWorkload(wlSpec); err != nil {
				return err
			}
			if cfg.ClassQuality, err = dessched.WorkloadQualityByClass(wlSpec); err != nil {
				return err
			}
			cfg.ClassPriority = dessched.WorkloadPriorityByClass(wlSpec)
		}
	}

	fl := simInstrumentFlags{
		live: *live, spansOut: *spansOut, spansPerfetto: *spansPerfetto,
		seriesOut: *seriesOut, epoch: *epoch,
		spansSample: *spansSample, flightOut: *flightOut, ledgerPath: *ledgerPath,
		seed: *seed, workloadFile: *workloadFile,
	}
	if fl.spansSample < 0 || fl.spansSample > 1 {
		return fmt.Errorf("-spans-sample wants a keep fraction in [0,1], got %g", fl.spansSample)
	}
	if *servers > 1 {
		if *events {
			return fmt.Errorf("-events is single-server only; cluster runs expose counts via -telemetry")
		}
		d, err := pf.dispatchPolicy()
		if err != nil {
			return err
		}
		var classes []string
		if d == dessched.DispatchByClass {
			if wlSpec == nil {
				return fmt.Errorf("-dispatch by-class needs a spec workload (-workload spec.json) to name the class partitions")
			}
			classes = dessched.WorkloadClassNames(wlSpec)
		}
		horizon := *duration
		if wlSpec != nil {
			horizon = wlSpec.Duration
		}
		hedge := dessched.HedgeConfig{Window: *hedgeWindow, Limit: *hedgeLimit}
		// Arrivals are pulled lazily, in memory bounded by the arrival
		// window, unless an output grows with the run anyway: schedule
		// traces and an unsampled span trace need the job slice (a CSV
		// trace is one already).
		materialize := *traceOut != "" || *perfettoOut != "" || (fl.wantSpans() && fl.spansSample <= 0)
		var src dessched.JobSource
		switch {
		case wlJobs != nil && (wlSpec == nil || materialize):
			src = dessched.NewSliceJobSource(wlJobs)
		case wlSpec != nil:
			if src, err = dessched.NewWorkloadSpecStream(wlSpec); err != nil {
				return err
			}
		default:
			wl := dessched.PaperWorkload(*rate)
			wl.Duration = *duration
			wl.Seed = *seed
			wl.PartialFraction = *partial
			if materialize {
				jobs, err := dessched.GenerateWorkload(wl)
				if err != nil {
					return err
				}
				src = dessched.NewSliceJobSource(jobs)
			} else if src, err = dessched.NewWorkloadStream(wl); err != nil {
				return err
			}
		}
		return runClusterSim(*servers, spec.Name, cfg, src, horizon, d, classes, *globalBudget,
			*chaosSeed, hedge, *checkpointOut, *resumeIn, *checkpointEvery, fl, *traceOut, *perfettoOut, *telemetryOut)
	}
	if *hedgeWindow > 0 {
		return fmt.Errorf("-hedge-window needs -servers > 1: hedging duplicates jobs across servers")
	}

	spec.Configure(&cfg)
	p := spec.New()

	wl := dessched.PaperWorkload(*rate)
	wl.Duration = *duration
	wl.Seed = *seed
	wl.PartialFraction = *partial
	if *chaosSeed > 0 {
		horizon := *duration
		if wlSpec != nil {
			horizon = wlSpec.Duration
		}
		cc := dessched.DefaultChaos(*chaosSeed, horizon, *cores)
		cc.MTTR = *mttr
		plan, err := cc.Generate()
		if err != nil {
			return err
		}
		fmt.Println(plan.String())
		bursts := plan.Apply(&cfg)
		switch {
		case wlSpec != nil:
			// Burst faults scale the spec's arrival rates; recompile with
			// the windows appended.
			for _, b := range bursts {
				wlSpec.Bursts = append(wlSpec.Bursts, dessched.WorkloadBurst{
					Start: b.Start, End: b.End, Multiplier: b.Multiplier,
				})
			}
			if wlJobs, err = dessched.CompileWorkload(wlSpec); err != nil {
				return err
			}
		case wlJobs != nil:
			return fmt.Errorf("-chaos-seed cannot scale a recorded trace's arrivals; replay a spec workload or use -rate")
		default:
			wl.Bursts = bursts
		}
	}

	// Instrumentation rides the options API: a schedule trace (CSV and/or
	// Perfetto), an event tally (-events), a metrics collector
	// (-telemetry), spans, series and the flight recorder can all ride the
	// same run. All are simulation-clock driven, so outputs are
	// reproducible per seed.
	var opts []dessched.SimOption
	var rec *dessched.Trace
	if *traceOut != "" || *perfettoOut != "" {
		rec = dessched.NewTrace(*cores)
		opts = append(opts, dessched.WithRecorder(rec))
	}
	var counter *dessched.EventCounter
	if *events {
		counter = dessched.NewEventCounter()
		opts = append(opts, dessched.WithObserver(counter.Observe))
	}
	var reg *dessched.MetricsRegistry
	if *telemetryOut != "" {
		reg = dessched.NewMetricsRegistry()
		opts = append(opts, dessched.WithTelemetry(reg))
	}
	var spanTracer *dessched.SpanTracer
	if fl.wantSpans() {
		spanTracer = newSimTracer(fl.spansSample, *seed)
		opts = append(opts, dessched.WithSpans(spanTracer))
	}
	var seriesRec *dessched.SeriesRecorder
	if fl.wantSeries() {
		seriesRec = dessched.NewSeriesRecorder(0)
		if fl.live {
			seriesRec.OnSample = liveTicker(os.Stdout)
		}
		opts = append(opts, dessched.WithSeries(seriesRec, fl.epoch))
	}
	var flightRec *dessched.FlightRecorder
	if fl.flightOut != "" {
		flightRec = dessched.NewFlightRecorder(dessched.FlightConfig{})
		opts = append(opts, dessched.WithFlight(flightRec))
	}

	if *resumeIn != "" && len(opts) > 0 {
		return fmt.Errorf("-resume cannot replay instrumentation; drop -trace/-perfetto/-telemetry/-events/-spans/-series/-live/-flight")
	}

	// Checkpointing keeps the latest engine snapshot on disk; resuming
	// restores it under the same flags (the snapshot fingerprint rejects a
	// drifted config). A resumed run carries the workload in the snapshot.
	snapshots := 0
	if *checkpointOut != "" {
		opts = append(opts, dessched.WithCheckpoint(*checkpointEvery, func(s *dessched.SimSnapshot) error {
			b, err := dessched.EncodeSimSnapshot(s)
			if err != nil {
				return err
			}
			snapshots++
			return os.WriteFile(*checkpointOut, b, 0o644)
		}))
	}

	var res dessched.Result
	if *resumeIn != "" {
		b, err := os.ReadFile(*resumeIn)
		if err != nil {
			return err
		}
		snap, err := dessched.DecodeSimSnapshot(b)
		if err != nil {
			return err
		}
		if res, err = dessched.ResumeSimulation(cfg, p, snap, opts...); err != nil {
			return err
		}
	} else {
		jobs := wlJobs
		if jobs == nil {
			generated, err := dessched.GenerateWorkload(wl)
			if err != nil {
				return err
			}
			jobs = generated
		}
		if res, err = dessched.Simulate(cfg, jobs, p, opts...); err != nil {
			return err
		}
	}
	if *checkpointOut != "" {
		statusLog.Info("checkpoint", "snapshots", snapshots, "path", *checkpointOut)
	}
	fmt.Println(res.String())
	printClassResults(res.Classes)
	capacity := float64(*cores) * cfg.Power.SpeedFor(*budget/float64(*cores)) * 1000
	switch {
	case wlSpec != nil:
		fmt.Printf("offered load: %.0f units/s over capacity %.0f units/s (rho %.2f)\n",
			wlSpec.OfferedLoad(), capacity, wlSpec.OfferedLoad()/capacity)
	case wlJobs == nil:
		fmt.Printf("offered load: %.0f units/s over capacity %.0f units/s (rho %.2f)\n",
			wl.OfferedLoad(), capacity, wl.OfferedLoad()/capacity)
	}

	if counter != nil {
		fmt.Print("events:")
		for _, k := range []dessched.EventKind{
			dessched.EvArrival, dessched.EvInvoke, dessched.EvComplete,
			dessched.EvDeadline, dessched.EvDiscard, dessched.EvFaultEdge,
		} {
			fmt.Printf(" %s=%d", k, counter.Counts[k])
		}
		fmt.Println()
	}

	if rec != nil && *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("trace: %d entries written to %s\n", len(rec.Entries), *traceOut)
	}
	if rec != nil && *perfettoOut != "" {
		f, err := os.Create(*perfettoOut)
		if err != nil {
			return err
		}
		defer f.Close()
		opts := telemetry.PerfettoOptions{Faults: cfg.Faults, BudgetFaults: cfg.BudgetFaults}
		if err := telemetry.WritePerfetto(f, rec, opts); err != nil {
			return err
		}
		fmt.Printf("perfetto: %d slices written to %s (load in https://ui.perfetto.dev)\n", len(rec.Entries), *perfettoOut)
	}
	if reg != nil {
		f, err := os.Create(*telemetryOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := telemetry.WritePrometheus(f, reg.Snapshot()); err != nil {
			return err
		}
		fmt.Printf("telemetry: metrics snapshot written to %s\n", *telemetryOut)
	}
	if spanTracer != nil {
		if err := writeSpanFiles(fl.spansOut, fl.spansPerfetto, spanTracer); err != nil {
			return err
		}
	}
	if flightRec != nil {
		if err := writeFlightFile(fl.flightOut, flightRec, res.Span); err != nil {
			return err
		}
	}
	if fl.seriesOut != "" {
		if err := writeSeriesFile(fl.seriesOut, seriesRec); err != nil {
			return err
		}
	}
	if fl.ledgerPath != "" {
		dur := *duration
		if wlSpec != nil {
			dur = wlSpec.Duration
		}
		e := dessched.ServerLedgerEntry(&cfg, spec.Name, res)
		e.Cmd = "sim"
		e.Seed = *seed
		e.Workload = *workloadFile
		e.WorkloadHash = hashWorkloadFile(*workloadFile)
		e.DurationS = dur
		if flightRec != nil {
			e.FlightDumps = len(flightRec.Dumps())
		}
		if err := recordLedger(fl.ledgerPath, e); err != nil {
			return err
		}
	}
	return nil
}
