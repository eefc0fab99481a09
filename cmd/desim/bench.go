package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dessched"
	"dessched/internal/power"
)

// benchSchema identifies the BENCH_sim.json layout; bump on breaking change.
const benchSchema = "dessched-bench/v1"

// BenchReport is the machine-readable output of `desim bench`. It pins the
// end-to-end simulator throughput on fixed scenarios so regressions show up
// as numbers, not as slower CI.
type BenchReport struct {
	Schema    string          `json:"schema"`
	Timestamp string          `json:"timestamp"`
	GoVersion string          `json:"go_version"`
	GOOS      string          `json:"goos"`
	GOARCH    string          `json:"goarch"`
	Scenarios []BenchScenario `json:"scenarios"`

	// SpansOverheadRatio is cdvfs-traced ns/event over cdvfs-single
	// ns/event — the cost of leaving the always-on observability stack
	// (sampling tracer, flight recorder) armed. The compare
	// gate fails when it crosses spansRatioLimit: sampled tracing is only
	// "always-on" if it stays effectively free.
	SpansOverheadRatio float64 `json:"spans_overhead_ratio,omitempty"`
}

// spansRatioLimit is the ceiling on SpansOverheadRatio the compare gate
// enforces: the armed observability stack may cost at most 5% ns/event
// over the bare hot path.
const spansRatioLimit = 1.05

// minCompareWall is the shortest best-repeat wall time (seconds) for
// which the compare gate trusts a wall-time rate: below it, a single
// scheduler preemption swings the figure by multiples of any real
// regression.
// Full-horizon scenarios clear it; -quick single-server runs (~1 ms)
// don't, leaving the quick smoke to gate the long cluster scenarios,
// peak RSS, and the paired spans_overhead_ratio.
const minCompareWall = 3e-3

// BenchScenario is one measured configuration. Rates are computed from the
// best (fastest) repeat, matching testing.B's convention that noise only
// ever slows a run down.
type BenchScenario struct {
	Name           string  `json:"name"`
	SimSeconds     float64 `json:"sim_seconds"`    // simulated horizon
	Jobs           int     `json:"jobs"`           // workload size
	Events         int     `json:"events"`         // event-queue pops per run
	Repeats        int     `json:"repeats"`        // measured repeats (best taken)
	WallSeconds    float64 `json:"wall_seconds"`   // best repeat wall time
	EventsPerSec   float64 `json:"events_per_sec"` // Events / WallSeconds
	NsPerEvent     float64 `json:"ns_per_event"`   // WallSeconds * 1e9 / Events
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`

	// PeakRSSBytes is the process peak resident set after the scenario,
	// recorded for memory-bounded scenarios (cluster-m1024) so RSS
	// regressions gate the bench compare like throughput regressions do.
	PeakRSSBytes int64 `json:"peak_rss_bytes,omitempty"`
}

// benchCase builds a scenario. setup prepares everything untimed (config,
// workload) and returns the closure one timed repeat executes — a fresh
// policy per repeat, as a service would construct one scheduler per server
// lifetime, not per run. The closure returns the run's event count so the
// harness can verify determinism across repeats.
type benchCase struct {
	name  string
	sim   float64
	setup func(simSeconds float64) (benchRun, error)

	// repeats, when > 0, overrides the -repeats flag — heavyweight
	// scenarios (cluster-m1024) run once rather than thrice.
	repeats int
	// noWarmup skips the untimed warm-up run for scenarios whose single
	// execution already dwarfs any lazy-initialization noise.
	noWarmup bool
	// rssLimit, when > 0, fails the scenario outright if the process peak
	// RSS exceeds it after the runs — the bounded-memory contract.
	rssLimit int64
}

// benchRun is one prepared scenario: the workload size and the repeatable
// timed body.
type benchRun struct {
	jobs int
	// jobsFn, when set, supplies the exact job count after the first run —
	// streamed scenarios only know arrivals once the source is drained.
	jobsFn func() int
	run    func() (events int, err error)
}

// simRun adapts a single-server (cfg, jobs, policy factory) triple to a
// benchRun.
func simRun(cfg dessched.ServerConfig, jobs []dessched.Job, newPolicy func() dessched.Policy) benchRun {
	return benchRun{jobs: len(jobs), run: func() (int, error) {
		res, err := dessched.Simulate(cfg, jobs, newPolicy())
		return res.Events, err
	}}
}

// benchCases are the fixed measurement scenarios. cdvfs-single mirrors
// BenchmarkSimulateDESRate200 in bench_test.go: the paper server at 200 req/s
// under C-DVFS — the headline hot path.
func benchCases(simSeconds float64) []benchCase {
	paper := func(arch dessched.Arch, mutate func(*dessched.ServerConfig)) func(float64) (benchRun, error) {
		return func(d float64) (benchRun, error) {
			cfg := dessched.PaperServer()
			if mutate != nil {
				mutate(&cfg)
			}
			dessched.ApplyArch(&cfg, arch)
			wl := dessched.PaperWorkload(200)
			wl.Duration = d
			jobs, err := dessched.GenerateWorkload(wl)
			return simRun(cfg, jobs, func() dessched.Policy { return dessched.NewDES(arch) }), err
		}
	}
	return []benchCase{
		{name: "cdvfs-single", sim: simSeconds, setup: paper(dessched.CDVFS, nil)},
		{name: "cdvfs-discrete", sim: simSeconds, setup: paper(dessched.CDVFS, func(cfg *dessched.ServerConfig) {
			cfg.Ladder = power.DefaultLadder
		})},
		{name: "sdvfs", sim: simSeconds, setup: paper(dessched.SDVFS, nil)},
		// cdvfs-traced is cdvfs-single with the production always-on
		// observability stack armed: the deterministic sampling tracer (1%
		// of hot replan instants) and the flight recorder. Its ns/event
		// over cdvfs-single is the report's spans_overhead_ratio, gated at
		// spansRatioLimit by `-compare` — the contract that tracing is
		// cheap enough to leave on every run. (The epoch series sampler and
		// the full tracer are heavier, opt-in instruments; see
		// docs/PERFORMANCE.md.)
		{name: "cdvfs-traced", sim: simSeconds, setup: func(d float64) (benchRun, error) {
			cfg := dessched.PaperServer()
			dessched.ApplyArch(&cfg, dessched.CDVFS)
			wl := dessched.PaperWorkload(200)
			wl.Duration = d
			jobs, err := dessched.GenerateWorkload(wl)
			if err != nil {
				return benchRun{}, err
			}
			return benchRun{jobs: len(jobs), run: func() (int, error) {
				tr := dessched.NewSamplingSpanTracer(dessched.SpanSampleConfig{
					Seed: 1, Rate: 1, Rates: map[string]float64{"replan": 0.01},
				})
				fr := dessched.NewFlightRecorder(dessched.FlightConfig{})
				res, err := dessched.Simulate(cfg, jobs, dessched.NewDES(dessched.CDVFS),
					dessched.WithSpans(tr), dessched.WithFlight(fr))
				return res.Events, err
			}}, nil
		}},
		{name: "chaos-admission", sim: simSeconds, setup: func(d float64) (benchRun, error) {
			cfg := dessched.PaperServer()
			cfg.Cores = 8
			cfg.Budget = 160
			dessched.ApplyArch(&cfg, dessched.CDVFS)
			plan, err := dessched.DefaultChaos(1, d, cfg.Cores).Generate()
			if err != nil {
				return benchRun{}, err
			}
			wl := dessched.PaperWorkload(120)
			wl.Duration = d
			wl.Seed = 1
			wl.Bursts = plan.Apply(&cfg)
			cfg.Admission = dessched.AdmissionConfig{Policy: dessched.QualityAware, MaxQueue: 64}
			jobs, err := dessched.GenerateWorkload(wl)
			return simRun(cfg, jobs, func() dessched.Policy { return dessched.NewDES(dessched.CDVFS) }), err
		}},
		// cluster-m8 pins the multi-server layer: 8 servers × 4 cores at
		// 80 W each behind a round-robin dispatcher, hierarchical
		// water-filling over 85% of the summed nominal budgets, and the
		// fleet's rate sized so every server sees ~60 req/s.
		{name: "cluster-m8", sim: simSeconds, setup: func(d float64) (benchRun, error) {
			server := dessched.PaperServer()
			server.Cores = 4
			server.Budget = 80
			ccfg := dessched.ClusterConfig{
				Servers:      8,
				Server:       server,
				Policy:       "des",
				Dispatch:     dessched.DispatchRoundRobin,
				GlobalBudget: 0.85 * 8 * server.Budget,
			}
			wl := dessched.PaperWorkload(480)
			wl.Duration = d
			jobs, err := dessched.GenerateWorkload(wl)
			if err != nil {
				return benchRun{}, err
			}
			return benchRun{jobs: len(jobs), run: func() (int, error) {
				res, err := dessched.SimulateCluster(ccfg, jobs)
				return res.Events, err
			}}, nil
		}},
		// cluster-m1024 pins the streaming fleet path at scale: 1,024
		// servers × 4 cores at 80 W behind round-robin dispatch,
		// hierarchical water-filling over 85% of the summed nominal
		// budgets, and arrivals pulled lazily from the generator at
		// ~60 req/s per server (≈10M jobs at the default -duration, scale
		// factor 32) so the whole run never materializes the job slice.
		// One timed repeat, no warm-up — a single execution is minutes of
		// simulated fleet time — and the scenario fails outright if peak
		// RSS crosses 1 GiB, which is the bounded-memory contract that
		// docs/SCALE.md documents.
		{name: "cluster-m1024", sim: 32 * simSeconds, repeats: 1, noWarmup: true,
			rssLimit: 1 << 30,
			setup: func(d float64) (benchRun, error) {
				server := dessched.PaperServer()
				server.Cores = 4
				server.Budget = 80
				ccfg := dessched.ClusterConfig{
					Servers:      1024,
					Server:       server,
					Policy:       "des",
					Dispatch:     dessched.DispatchRoundRobin,
					GlobalBudget: 0.85 * 1024 * server.Budget,
				}
				wl := dessched.PaperWorkload(61440)
				wl.Duration = d
				arrived := 0
				return benchRun{
					jobs:   int(61440 * d), // estimate; jobsFn reports the exact draw
					jobsFn: func() int { return arrived },
					run: func() (int, error) {
						src, err := dessched.NewWorkloadStream(wl)
						if err != nil {
							return 0, err
						}
						res, err := dessched.SimulateClusterStream(ccfg, src)
						arrived = res.Arrived
						return res.Events, err
					}}, nil
			}},
		// cluster-m1024-traced is cluster-m1024 with the always-on
		// observability stack armed fleet-wide: a sampling tracer (1% of
		// replans, per-server children folded deterministically) and the
		// flight recorder (a 256-event ring per server). The same 1 GiB
		// peak-RSS limit applies — tracing a thousand streamed servers must
		// not break the bounded-memory contract.
		{name: "cluster-m1024-traced", sim: 32 * simSeconds, repeats: 1, noWarmup: true,
			rssLimit: 1 << 30,
			setup: func(d float64) (benchRun, error) {
				server := dessched.PaperServer()
				server.Cores = 4
				server.Budget = 80
				ccfg := dessched.ClusterConfig{
					Servers:      1024,
					Server:       server,
					Policy:       "des",
					Dispatch:     dessched.DispatchRoundRobin,
					GlobalBudget: 0.85 * 1024 * server.Budget,
				}
				wl := dessched.PaperWorkload(61440)
				wl.Duration = d
				arrived := 0
				return benchRun{
					jobs:   int(61440 * d),
					jobsFn: func() int { return arrived },
					run: func() (int, error) {
						src, err := dessched.NewWorkloadStream(wl)
						if err != nil {
							return 0, err
						}
						run := ccfg
						run.Instrument = &dessched.ClusterInstrument{
							Tracer: dessched.NewSamplingSpanTracer(dessched.SpanSampleConfig{
								Seed: 1, Rate: 1, Rates: map[string]float64{"replan": 0.01},
							}),
							Flight: dessched.NewFlightRecorder(dessched.FlightConfig{}),
						}
						res, err := dessched.SimulateClusterStream(run, src)
						arrived = res.Arrived
						return res.Events, err
					}}, nil
			}},
	}
}

// peakRSSBytes reports the process's high-water resident set. On Linux it
// reads VmHWM from /proc/self/status — the kernel's own peak accounting,
// which sees every page the Go heap, stacks, and runtime ever touched.
// Elsewhere it falls back to runtime.MemStats.Sys, the bytes Go obtained
// from the OS (an upper bound on the Go-owned share, blind to peaks).
func peakRSSBytes() int64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

// measureScenario runs one case `repeats` times and keeps the fastest wall
// time; allocation counts are per-run medians in spirit but in practice are
// deterministic, so the best repeat's are reported.
func measureScenario(c benchCase, repeats int) (BenchScenario, error) {
	if c.repeats > 0 {
		repeats = c.repeats
	}
	br, err := c.setup(c.sim)
	if err != nil {
		return BenchScenario{}, fmt.Errorf("%s: setup: %w", c.name, err)
	}
	sc := BenchScenario{
		Name:        c.name,
		SimSeconds:  c.sim,
		Jobs:        br.jobs,
		Events:      -1,
		Repeats:     repeats,
		WallSeconds: math.Inf(1),
	}
	if !c.noWarmup {
		// One untimed warm-up run to populate lazy state and steady the heap.
		events, err := br.run()
		if err != nil {
			return BenchScenario{}, fmt.Errorf("%s: %w", c.name, err)
		}
		sc.Events = events
	}
	var ms0, ms1 runtime.MemStats
	for r := 0; r < repeats; r++ {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		events, err := br.run()
		wall := time.Since(start).Seconds()
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return BenchScenario{}, fmt.Errorf("%s: %w", c.name, err)
		}
		if sc.Events < 0 {
			sc.Events = events
		} else if events != sc.Events {
			return BenchScenario{}, fmt.Errorf("%s: event count drifted across repeats (%d vs %d) — nondeterminism", c.name, events, sc.Events)
		}
		if wall < sc.WallSeconds {
			sc.WallSeconds = wall
			ev := float64(events)
			sc.EventsPerSec = ev / wall
			sc.NsPerEvent = wall * 1e9 / ev
			sc.AllocsPerEvent = float64(ms1.Mallocs-ms0.Mallocs) / ev
			sc.BytesPerEvent = float64(ms1.TotalAlloc-ms0.TotalAlloc) / ev
		}
	}
	if br.jobsFn != nil {
		sc.Jobs = br.jobsFn()
	}
	if c.rssLimit > 0 {
		sc.PeakRSSBytes = peakRSSBytes()
		if sc.PeakRSSBytes > c.rssLimit {
			return BenchScenario{}, fmt.Errorf("%s: peak RSS %.0f MiB exceeds the %.0f MiB limit — the streamed pipeline is no longer memory-bounded",
				c.name, float64(sc.PeakRSSBytes)/(1<<20), float64(c.rssLimit)/(1<<20))
		}
	}
	return sc, nil
}

// cmdBench measures simulator throughput on the fixed scenarios and writes
// BENCH_sim.json. With -compare it also diffs against a previous baseline
// and fails when any scenario regressed beyond the threshold — CI gates on
// this with a widened -threshold to absorb shared-runner noise.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("out", "BENCH_sim.json", "write the JSON baseline to this file")
	compare := fs.String("compare", "", "diff against this previous BENCH_sim.json; exit 1 on regression")
	repeats := fs.Int("repeats", 3, "measured repeats per scenario (fastest kept)")
	duration := fs.Float64("duration", 5, "simulated seconds per scenario")
	threshold := fs.Float64("threshold", 0.30, "relative ns/job (or allocs/job, or peak RSS) growth that counts as a regression")
	quick := fs.Bool("quick", false, "smoke fidelity: 1 s horizon, 1 repeat")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *quick {
		*duration = 1
		*repeats = 1
	}
	if *repeats < 1 || *duration <= 0 {
		return fmt.Errorf("need -repeats >= 1 and -duration > 0")
	}

	rep := BenchReport{
		Schema:    benchSchema,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	for _, c := range benchCases(*duration) {
		sc, err := measureScenario(c, *repeats)
		if err != nil {
			return err
		}
		rep.Scenarios = append(rep.Scenarios, sc)
		fmt.Printf("%-20s %9d events  %11.0f events/s  %7.0f ns/event  %6.2f allocs/event  %7.0f B/event",
			sc.Name, sc.Events, sc.EventsPerSec, sc.NsPerEvent, sc.AllocsPerEvent, sc.BytesPerEvent)
		if sc.PeakRSSBytes > 0 {
			fmt.Printf("  %5.0f MiB peak RSS", float64(sc.PeakRSSBytes)/(1<<20))
		}
		fmt.Println()
	}
	if r, err := measureSpansOverhead(benchCases(*duration), *repeats); err != nil {
		return err
	} else if r > 0 {
		rep.SpansOverheadRatio = r
		fmt.Printf("spans_overhead_ratio %.4f (cdvfs-traced vs cdvfs-single ns/event, paired; gate < %.2f)\n",
			r, spansRatioLimit)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		werr := enc.Encode(rep)
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		if cerr != nil {
			return cerr
		}
		fmt.Printf("baseline written to %s\n", *out)
	}

	if *compare != "" {
		return compareBench(rep, *compare, *threshold)
	}
	return nil
}

// measureSpansOverhead measures spans_overhead_ratio from a dedicated
// paired run: cdvfs-single and cdvfs-traced alternate back-to-back for
// several rounds and the ratio is best-of over best-of. Ratios from the
// scenario table would compare runs taken seconds apart with unrelated
// scenarios between them — clock-frequency and cache drift on a shared
// runner easily dwarfs the few-percent effect this gate protects.
// Interleaving cancels the drift; best-of cancels one-sided noise
// (interruptions only ever slow a run down). Returns 0 when either
// scenario is missing from cases.
func measureSpansOverhead(cases []benchCase, repeats int) (float64, error) {
	var single, traced *benchCase
	for i := range cases {
		switch cases[i].name {
		case "cdvfs-single":
			single = &cases[i]
		case "cdvfs-traced":
			traced = &cases[i]
		}
	}
	if single == nil || traced == nil {
		return 0, nil
	}
	base, err := single.setup(single.sim)
	if err != nil {
		return 0, fmt.Errorf("spans-overhead: %s: %w", single.name, err)
	}
	armed, err := traced.setup(traced.sim)
	if err != nil {
		return 0, fmt.Errorf("spans-overhead: %s: %w", traced.name, err)
	}
	rounds := 3 * repeats
	if rounds < 9 {
		rounds = 9 // even -quick gets a stable ratio: the runs are tiny
	}
	timed := func(run func() (int, error)) (float64, error) { // ns/event
		runtime.GC()
		start := time.Now()
		events, err := run()
		wall := time.Since(start).Seconds()
		if err != nil {
			return 0, err
		}
		return wall * 1e9 / float64(events), nil
	}
	// Warm both paths once, then interleave: A B A B ... with best-of
	// folded in per round.
	if _, err := base.run(); err != nil {
		return 0, fmt.Errorf("spans-overhead: %s: %w", single.name, err)
	}
	if _, err := armed.run(); err != nil {
		return 0, fmt.Errorf("spans-overhead: %s: %w", traced.name, err)
	}
	bestBase, bestArmed := math.Inf(1), math.Inf(1)
	for r := 0; r < rounds; r++ {
		nsBase, err := timed(base.run)
		if err != nil {
			return 0, fmt.Errorf("spans-overhead: %s: %w", single.name, err)
		}
		nsArmed, err := timed(armed.run)
		if err != nil {
			return 0, fmt.Errorf("spans-overhead: %s: %w", traced.name, err)
		}
		bestBase = math.Min(bestBase, nsBase)
		bestArmed = math.Min(bestArmed, nsArmed)
	}
	return bestArmed / bestBase, nil
}

// compareBench diffs the fresh report against a stored baseline. Scenarios
// present only on one side are reported but not fatal (the scenario set may
// evolve); a matched scenario regressing past the threshold is. Wall time
// and allocations are judged per job, not per event: for a fixed scenario
// and horizon the events per job are deterministic, so the two agree while
// the engine's event count stands still, and only the per-job figure stays
// a fixed unit of work when a change removes events on purpose. ns/event
// is still printed. Two absolute gates ride along: spans_overhead_ratio
// must stay under spansRatioLimit, and RSS-limited scenarios already
// failed in measureScenario if they breached their byte budget.
func compareBench(fresh BenchReport, baselinePath string, threshold float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	var base BenchReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("compare: %s: %w", baselinePath, err)
	}
	if base.Schema != benchSchema {
		return fmt.Errorf("compare: %s has schema %q, want %q", baselinePath, base.Schema, benchSchema)
	}
	byName := make(map[string]BenchScenario, len(base.Scenarios))
	for _, sc := range base.Scenarios {
		byName[sc.Name] = sc
	}
	regressed := 0
	for _, sc := range fresh.Scenarios {
		old, ok := byName[sc.Name]
		if !ok {
			fmt.Printf("%-16s new scenario, no baseline\n", sc.Name)
			continue
		}
		delete(byName, sc.Name)
		// A run that finished in under minCompareWall can't support a
		// percent-level ns/job claim — scheduler hiccups alone swing it
		// by multiples (quick-mode cluster-m8 measures ~1 ms). Leave such
		// scenarios to the full baseline run.
		dt, nsCol := 0.0, "ns/job n/a (run too short)"
		if sc.WallSeconds >= minCompareWall && old.WallSeconds >= minCompareWall && sc.Jobs > 0 && old.Jobs > 0 {
			dt = rel(sc.WallSeconds*1e9/float64(sc.Jobs), old.WallSeconds*1e9/float64(old.Jobs))
			nsCol = fmt.Sprintf("ns/job %+.1f%% (ns/event %+.1f%%)", dt*100, rel(sc.NsPerEvent, old.NsPerEvent)*100)
		}
		dm := rel(float64(sc.PeakRSSBytes), float64(old.PeakRSSBytes))
		// Allocations are deterministic for a given horizon, but fixed
		// per-run allocations (buffer growth to steady size) amortize over
		// the run, so a -quick run is not comparable to a full baseline.
		// Only runs of the same horizon over the same jobs make the allocs
		// column a real signal.
		da, allocsCol := 0.0, "allocs/job n/a (horizon differs)"
		if sc.SimSeconds == old.SimSeconds && sc.Jobs == old.Jobs && sc.Jobs > 0 {
			perJob := func(b BenchScenario) float64 { return b.AllocsPerEvent * float64(b.Events) / float64(b.Jobs) }
			da = rel(perJob(sc), perJob(old))
			allocsCol = fmt.Sprintf("allocs/job %+.1f%%", da*100)
		}
		status := "ok"
		if dt > threshold || da > threshold || dm > threshold {
			status = "REGRESSED"
			regressed++
		}
		if sc.PeakRSSBytes > 0 && old.PeakRSSBytes > 0 {
			fmt.Printf("%-16s %s  %s  peak RSS %+.1f%%  %s\n",
				sc.Name, nsCol, allocsCol, dm*100, status)
		} else {
			fmt.Printf("%-16s %s  %s  %s\n", sc.Name, nsCol, allocsCol, status)
		}
	}
	for name := range byName {
		fmt.Printf("%-16s present in baseline only\n", name)
	}
	if r := fresh.SpansOverheadRatio; r >= spansRatioLimit {
		return fmt.Errorf("spans_overhead_ratio %.4f breaches the %.2f gate: the armed tracer+flight stack costs more than %.0f%% ns/event over the bare hot path",
			r, spansRatioLimit, (spansRatioLimit-1)*100)
	}
	if regressed > 0 {
		return fmt.Errorf("%d scenario(s) regressed more than %.0f%% vs %s", regressed, threshold*100, baselinePath)
	}
	return nil
}

// rel returns the relative change from old to cur, treating a zero or
// near-zero baseline as "no regression measurable" (e.g. allocs/event that
// was already ~0 stays comparable only in absolute terms).
func rel(cur, old float64) float64 {
	if old < 1e-12 {
		return 0
	}
	return (cur - old) / old
}
