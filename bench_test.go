// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V). Each BenchmarkFigN runs the corresponding experiment at reduced
// fidelity and reports the headline series values as custom metrics, so
// `go test -bench=. -benchmem` doubles as a miniature reproduction of the
// whole evaluation; `desim run -exp figN -paper` gives full fidelity.
// Micro-benchmarks for the scheduling primitives follow, then two gates
// that fail the run (b.Fatalf) past fixed ceilings: BenchmarkFleetGates
// (the streamed 1,024-server fleet's ns/job and peak RSS) and
// BenchmarkSpansOverheadGate (the always-on tracing tier's cost). Run them
// alone, in a process that runs nothing else, because peak RSS is the
// whole process's:
//
//	go test -run '^$' -bench '^(BenchmarkFleetGates|BenchmarkSpansOverheadGate)$' -benchtime 1x .
//
// Performance claims belong to the benchmark in bench/ (paired runs with
// dispersion); these gates only catch gross regressions.
package dessched_test

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"dessched"
	"dessched/internal/dist"
	"dessched/internal/experiments"
	"dessched/internal/job"
	"dessched/internal/qeopt"
	"dessched/internal/tians"
	"dessched/internal/workload"
	"dessched/internal/yds"
)

// benchOptions keeps figure benchmarks in the seconds range.
func benchOptions() experiments.Options {
	return experiments.Options{Duration: 10, Seed: 1, Rates: []float64{120, 200}}
}

// runExperiment executes one experiment per iteration and reports the first
// and last row of each table's first column as metrics.
func runExperiment(b *testing.B, id string, o experiments.Options) []*experiments.Table {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var tabs []*experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tabs, err = e.Run(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	return tabs
}

func reportSeries(b *testing.B, t *experiments.Table, col string, unit string) {
	vals := t.Column(col)
	if len(vals) == 0 {
		return
	}
	b.ReportMetric(vals[0], unit+"_light")
	b.ReportMetric(vals[len(vals)-1], unit+"_heavy")
}

func BenchmarkFig3Architectures(b *testing.B) {
	tabs := runExperiment(b, "fig3", benchOptions())
	reportSeries(b, tabs[0], "C-DVFS", "qualityC")
	reportSeries(b, tabs[0], "S-DVFS", "qualityS")
	reportSeries(b, tabs[1], "C-DVFS", "energyC")
}

func BenchmarkFig4PartialEvaluation(b *testing.B) {
	tabs := runExperiment(b, "fig4", benchOptions())
	reportSeries(b, tabs[0], "100%", "quality100")
	reportSeries(b, tabs[0], "0%", "quality0")
}

func BenchmarkFig5Baselines(b *testing.B) {
	tabs := runExperiment(b, "fig5", benchOptions())
	reportSeries(b, tabs[0], "DES", "qualityDES")
	reportSeries(b, tabs[0], "FCFS", "qualityFCFS")
	reportSeries(b, tabs[0], "SJF", "qualitySJF")
}

func BenchmarkFig6BaselinesWithWF(b *testing.B) {
	tabs := runExperiment(b, "fig6", benchOptions())
	reportSeries(b, tabs[0], "DES", "qualityDES")
	reportSeries(b, tabs[0], "FCFS+WF", "qualityFCFSWF")
}

func BenchmarkFig7QualityFunctions(b *testing.B) {
	o := benchOptions()
	o.Rates = []float64{200}
	tabs := runExperiment(b, "fig7", o)
	reportSeries(b, tabs[1], "exp(c=0.009)", "qualityHighC")
	reportSeries(b, tabs[1], "exp(c=0.0005)", "qualityLowC")
}

func BenchmarkFig8PowerBudgets(b *testing.B) {
	o := benchOptions()
	o.Rates = []float64{220}
	tabs := runExperiment(b, "fig8", o)
	reportSeries(b, tabs[0], "H=80W", "quality80W")
	reportSeries(b, tabs[0], "H=640W", "quality640W")
}

func BenchmarkFig9CoreCounts(b *testing.B) {
	o := experiments.Options{Duration: 10, Seed: 1}
	tabs := runExperiment(b, "fig9", o)
	q := tabs[0].Column("quality")
	if len(q) == 7 {
		b.ReportMetric(q[0], "quality1core")
		b.ReportMetric(q[4], "quality16core")
	}
}

func BenchmarkFig10DiscreteScaling(b *testing.B) {
	tabs := runExperiment(b, "fig10", benchOptions())
	reportSeries(b, tabs[0], "continuous", "qualityCont")
	reportSeries(b, tabs[0], "discrete", "qualityDisc")
}

func BenchmarkFig11Validation(b *testing.B) {
	o := experiments.Options{Duration: 10, Seed: 1, Rates: []float64{60, 120}}
	tabs := runExperiment(b, "fig11", o)
	reportSeries(b, tabs[0], "simulation", "simJ")
	reportSeries(b, tabs[0], "real(emulated)", "realJ")
}

func BenchmarkThroughputAtQuality(b *testing.B) {
	o := experiments.Options{Duration: 8, Seed: 1}
	tabs := runExperiment(b, "tput", o)
	t := tabs[0]
	for i, label := range t.RowLabels {
		b.ReportMetric(t.Rows[i].Y[0], "rate"+label)
	}
}

func BenchmarkEnergySavings(b *testing.B) {
	o := experiments.Options{Duration: 10, Seed: 1, Rates: []float64{100}}
	tabs := runExperiment(b, "esave", o)
	b.ReportMetric(tabs[0].Rows[0].Y[0], "savingS%")
	b.ReportMetric(tabs[0].Rows[0].Y[1], "extraC%")
}

func BenchmarkAblations(b *testing.B) {
	o := experiments.Options{Duration: 10, Seed: 1, Rates: []float64{120}}
	tabs := runExperiment(b, "ablate", o)
	reportSeries(b, tabs[0], "DES", "qualityDES")
	reportSeries(b, tabs[0], "plain-RR", "qualityPlainRR")
}

// --- micro-benchmarks for the scheduling primitives ---

func BenchmarkOnlineQE16Jobs(b *testing.B) {
	cfg := qeopt.Config{Power: dessched.DefaultPowerModel(), Budget: 20}
	ready := make([]job.Ready, 16)
	for i := range ready {
		ready[i] = job.Ready{Job: job.Job{
			ID: job.ID(i), Release: 0, Deadline: 0.05 + float64(i)*0.01,
			Demand: 130 + float64(i*53%870), Partial: true,
		}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qeopt.Online(cfg, 0, ready); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkYDSSameRelease64(b *testing.B) {
	tasks := make([]yds.Task, 64)
	for i := range tasks {
		tasks[i] = yds.Task{ID: job.ID(i), Deadline: 0.01 + float64(i)*0.003, Volume: 50 + float64(i*37%400)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := yds.SameRelease(0, tasks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTiansSameRelease64(b *testing.B) {
	tasks := make([]tians.Task, 64)
	for i := range tasks {
		tasks[i] = tians.Task{ID: job.ID(i), Deadline: 0.01 + float64(i)*0.003, Demand: 130 + float64(i*37%870)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tians.SameRelease(0, 2.0, tasks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWaterFill16Cores(b *testing.B) {
	requests := make([]float64, 16)
	for i := range requests {
		requests[i] = float64(5 + i*7%40)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.WaterFill(320, requests)
	}
}

func BenchmarkOnlineQETwoSpeedDiscrete(b *testing.B) {
	cfg := qeopt.Config{Power: dessched.DefaultPowerModel(), Budget: 20,
		Ladder: dessched.DiscreteLadder(0.5, 1.0, 1.5, 2.0, 2.5, 3.0), TwoSpeed: true}
	ready := make([]job.Ready, 16)
	for i := range ready {
		ready[i] = job.Ready{Job: job.Job{
			ID: job.ID(i), Release: 0, Deadline: 0.05 + float64(i)*0.01,
			Demand: 130 + float64(i*53%870), Partial: true,
		}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qeopt.Online(cfg, 0, ready); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateDiurnalWorkload(b *testing.B) {
	cfg := workload.DefaultDiurnal(150)
	cfg.Duration = 60
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs, err := workload.GenerateDiurnal(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(jobs)), "jobs")
		}
	}
}

func BenchmarkSimulateDESRate200(b *testing.B) {
	wl := dessched.PaperWorkload(200)
	wl.Duration = 5
	jobs, err := dessched.GenerateWorkload(wl)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dessched.Simulate(dessched.PaperServer(), jobs, dessched.NewDES(dessched.CDVFS))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Arrived)/5, "jobs/simsec")
		}
	}
}

// BenchmarkFleetGates runs the streamed fleet at scale: 1,024 servers × 4
// cores at 80 W behind round-robin dispatch, hierarchical water-filling
// over 85% of the summed nominal budgets, and arrivals pulled lazily from
// the generator at ~60 req/s per server, plain and with the always-on
// observability tier armed fleet-wide (a sampling tracer on 1% of replans
// and the flight recorder). Each row fails when a run costs more ns per
// job, or leaves the process a larger peak resident set, than its ceiling.
// The 32 s rows' ceilings are 1.5× the 160 s fleet's ns/job and peak RSS
// measured on 2026-08-08 (18.402158921 s and 86,228,992 B plain,
// 26.062322737 s and 123,543,552 B armed, over 9,833,674 jobs); the 160 s
// rows (~9.8M jobs) hold the 1 GiB bounded-memory contract of
// docs/SCALE.md. Peak RSS is the kernel's high-water mark, which never
// falls, so each row reads the peak of every row before it.
func BenchmarkFleetGates(b *testing.B) {
	server := dessched.PaperServer()
	server.Cores = 4
	server.Budget = 80
	cfg := dessched.ClusterConfig{
		Servers:      1024,
		Server:       server,
		Policy:       "des",
		Dispatch:     dessched.DispatchRoundRobin,
		GlobalBudget: 0.85 * 1024 * server.Budget,
	}
	for _, row := range []struct {
		name        string
		armed       bool
		horizon     float64 // simulated seconds
		maxNsPerJob float64 // 0: not gated
		maxRSS      int64   // bytes
	}{
		{"plain-32s", false, 32, 2807, 129_343_488},
		{"armed-32s", true, 32, 3975, 185_315_328},
		{"plain-160s", false, 160, 0, 1 << 30},
		{"armed-160s", true, 160, 0, 1 << 30},
	} {
		b.Run(row.name, func(b *testing.B) {
			wl := dessched.PaperWorkload(61440)
			wl.Duration = row.horizon
			var wall time.Duration
			jobs := 0
			for i := 0; i < b.N; i++ {
				runtime.GC()
				start := time.Now()
				src, err := dessched.NewWorkloadStream(wl)
				if err != nil {
					b.Fatal(err)
				}
				run := cfg
				if row.armed {
					run.Instrument = &dessched.ClusterInstrument{
						Tracer: dessched.NewSamplingSpanTracer(dessched.SpanSampleConfig{
							Seed: 1, Rate: 1, Rates: map[string]float64{"replan": 0.01},
						}),
						Flight: dessched.NewFlightRecorder(dessched.FlightConfig{}),
					}
				}
				res, err := dessched.SimulateClusterStream(run, src)
				if err != nil {
					b.Fatal(err)
				}
				wall += time.Since(start)
				jobs += res.Arrived
			}
			nsPerJob := float64(wall.Nanoseconds()) / float64(jobs)
			rss := peakRSSBytes()
			b.ReportMetric(float64(jobs)/float64(b.N), "jobs/op")
			b.ReportMetric(nsPerJob, "ns/job")
			b.ReportMetric(float64(rss)/(1<<20), "peak-RSS-MiB")
			if row.maxNsPerJob > 0 && nsPerJob > row.maxNsPerJob {
				b.Fatalf("%.0f ns/job exceeds the %.0f ns/job ceiling", nsPerJob, row.maxNsPerJob)
			}
			if rss > row.maxRSS {
				b.Fatalf("peak RSS %d B (%.1f MiB) exceeds the %d B ceiling: the streamed pipeline is no longer memory-bounded",
					rss, float64(rss)/(1<<20), row.maxRSS)
			}
		})
	}
}

// peakRSSBytes reports the process's high-water resident set: VmHWM from
// /proc/self/status on Linux, the kernel's own peak accounting, which sees
// every page the Go heap, stacks and runtime ever touched. Elsewhere it
// falls back to runtime.MemStats.Sys, the bytes Go obtained from the OS.
func peakRSSBytes() int64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == "VmHWM:" {
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

// BenchmarkSpansOverheadGate holds the always-on observability tier — the
// sampling span tracer on 1% of replans and the flight recorder, fresh per
// run — to under 5% ns/event over the bare hot path: the paper server
// under C-DVFS DES on 1 s of PaperWorkload(200). After one untimed
// warm-up per side, each iteration times nine interleaved rounds (bare,
// then armed, each after a runtime.GC()), and the ratio is the armed
// side's best ns/event over the bare side's. Interleaving cancels clock
// and cache drift; best-of cancels one-sided noise, since interruptions
// only ever slow a run down.
func BenchmarkSpansOverheadGate(b *testing.B) {
	const limit, rounds = 1.05, 9
	cfg := dessched.PaperServer()
	dessched.ApplyArch(&cfg, dessched.CDVFS)
	wl := dessched.PaperWorkload(200)
	wl.Duration = 1
	jobs, err := dessched.GenerateWorkload(wl)
	if err != nil {
		b.Fatal(err)
	}
	bare := func() (dessched.Result, error) {
		return dessched.Simulate(cfg, jobs, dessched.NewDES(dessched.CDVFS))
	}
	armed := func() (dessched.Result, error) {
		tr := dessched.NewSamplingSpanTracer(dessched.SpanSampleConfig{
			Seed: 1, Rate: 1, Rates: map[string]float64{"replan": 0.01},
		})
		fr := dessched.NewFlightRecorder(dessched.FlightConfig{})
		return dessched.Simulate(cfg, jobs, dessched.NewDES(dessched.CDVFS),
			dessched.WithSpans(tr), dessched.WithFlight(fr))
	}
	timed := func(run func() (dessched.Result, error)) float64 { // ns/event
		runtime.GC()
		start := time.Now()
		res, err := run()
		wall := time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		return float64(wall.Nanoseconds()) / float64(res.Events)
	}
	for _, run := range []func() (dessched.Result, error){bare, armed} {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	bestBare, bestArmed := math.Inf(1), math.Inf(1)
	for i := 0; i < b.N; i++ {
		for r := 0; r < rounds; r++ {
			bestBare = math.Min(bestBare, timed(bare))
			bestArmed = math.Min(bestArmed, timed(armed))
		}
	}
	ratio := bestArmed / bestBare
	b.ReportMetric(bestBare, "bare-ns/event")
	b.ReportMetric(bestArmed, "armed-ns/event")
	b.ReportMetric(ratio, "overhead-ratio")
	if ratio >= limit {
		b.Fatalf("overhead ratio %.4f breaches the %.2f gate: the armed tracer+flight tier costs %.0f%% or more ns/event over the bare hot path",
			ratio, limit, (limit-1)*100)
	}
}

// BenchmarkSimulateDESPaperLight is the paper server at 60 req/s, the
// load of the benchmark's paper-light workload: the budget-free schedules
// fit, so DES takes the step-2 exit and most cores plan with no job.
func BenchmarkSimulateDESPaperLight(b *testing.B) {
	wl := dessched.PaperWorkload(60)
	wl.Duration = 20
	jobs, err := dessched.GenerateWorkload(wl)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dessched.Simulate(dessched.PaperServer(), jobs, dessched.NewDES(dessched.CDVFS))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Arrived)/20, "jobs/simsec")
		}
	}
}
