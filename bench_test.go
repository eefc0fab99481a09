// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V). Each BenchmarkFigN runs the corresponding experiment at reduced
// fidelity and reports the headline series values as custom metrics, so
// `go test -bench=. -benchmem` doubles as a miniature reproduction of the
// whole evaluation; `desim run -exp figN -paper` gives full fidelity.
// Micro-benchmarks for the scheduling primitives follow.
package dessched_test

import (
	"testing"

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
