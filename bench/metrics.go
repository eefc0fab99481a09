package main

import (
	"math"
	"runtime"
	"slices"
)

func field(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func jobsOf(s sample) float64    { return float64(s.Jobs) }
func runSOf(s sample) float64    { return s.RunS }
func probeMsOf(s sample) float64 { return s.ProbeMs }

// slowness is how much slower than the reference host the probes around
// this repeat ran.
func slowness(s sample) float64 { return s.ProbeMs / probeRefMs[s.Workers] }

// calibratedJobsPerS is Σ jobs / Σ run_s × mean(slowness) over ss.
func calibratedJobsPerS(ss []sample) float64 {
	return ratioOfSums(field(ss, jobsOf), field(ss, runSOf)) * mean(field(ss, slowness))
}

func ratio(a, b float64) float64 { return a / b }

// exactPerSeed names the end-to-end metrics that are simulated outputs:
// the same seed gives the same bits, so compare judges them seed by seed
// and any difference is a change in behaviour. BENCHMARK.json's bound on
// them only covers how they vary from seed to seed.
var exactPerSeed = map[string]bool{"norm_quality": true, "energy_j_per_job": true}

// pairedAbsBound holds the absolute bounds compare applies, in place of
// BENCHMARK.json's relative ones, to metrics judged on seed-paired medians.
// The armed/plain run-time ratio may grow by at most 0.05, the tolerance of
// the repository's own tracing-overhead gate; the file's bound is wider
// because it must also cover the ratio's spread across seeds.
var pairedAbsBound = map[string]float64{"obs_overhead_ratio": 0.05}

// endToEnd computes the end-to-end metrics from the untraced pass.
func endToEnd(m *measurement) map[string]float64 {
	armed, plain := m.pairs("armed", "plain", runSOf)
	return map[string]float64{
		"jobs_per_s":         calibratedJobsPerS(m.of("plain")),
		"setup_s":            median(field(m.samples, func(s sample) float64 { return s.SetupS / slowness(s) })),
		"peak_rss_mib":       median(field(m.of("plain"), func(s sample) float64 { return float64(s.PeakRSS) })) / (1 << 20),
		"obs_overhead_ratio": pairMedian(armed, plain, ratio),
		"norm_quality":       m.ref.NormQuality,
		"energy_j_per_job":   m.ref.Energy / float64(m.ref.Jobs),
	}
}

// perLayer computes the per-layer metrics from the traced pass. Counts are
// per repeat; times come from the traced repeats except where a metric
// names its own pairing.
func perLayer(w *workload, m *measurement, st *layerStats) map[string]float64 {
	ref := &m.ref
	r := float64(st.Repeats)
	events := float64(ref.Events) * r
	// The traced wall time less the benchmark's own work in the wrappers
	// estimates what the program spent; the layers divide that estimate.
	est := float64(st.WallNs - st.ExtraNs)
	layerNs := float64(st.RequestNs + st.ScheduleNs + st.WaterfillNs + st.OnlineNs)

	plainMode := "plain"
	if w.fleet {
		plainMode = "plain-w1"
	}
	plain := m.of(plainMode)

	// Parallel speed-up of the fleet pipeline from the one-worker and
	// GOMAXPROCS-worker pairs, and the serial share Amdahl's law infers
	// from it. A single-server engine is one serial shard: speed-up 1.
	speedup, serial := 1.0, 1.0
	if p := float64(min(maxWorkers, runtime.GOMAXPROCS(0))); w.fleet && p > 1 {
		one, many := m.pairs("plain-w1", "plain", runSOf)
		speedup = pairMedian(one, many, ratio)
		serial = (p/speedup - 1) / (p - 1)
	}
	imbalance := 1.0
	if n := len(st.ServerPlans); n > 0 {
		var sum, peak int64
		for _, v := range st.ServerPlans {
			sum += v
			peak = max(peak, v)
		}
		imbalance = float64(peak) * float64(n) / float64(sum)
	}
	armed, plainW := m.pairs("armed", "plain", runSOf)
	armedNs := make([]float64, len(armed))
	for i := range armed {
		armedNs[i] = (armed[i] - plainW[i]) * 1e9 / float64(ref.Events)
	}
	plainMax := m.of("plain")
	perJob := func(s sample) float64 { return float64(s.AllocBytes) / float64(s.Jobs) }
	share := func(num, den int) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	perCall := func(ns int64, calls int) float64 { return share(int(ns), calls) }

	return map[string]float64{
		"sim.events":                   float64(ref.Events),
		"sim.invocations":              float64(ref.Invocations),
		"sim.self_ns_per_event":        (est - float64(st.PlanNs) - float64(st.SourceNs)) / events,
		"sim.retried":                  float64(ref.Retried),
		"sim.abandoned":                float64(ref.Abandoned),
		"core.plan_ns_p50":             percentile(st.PlanNsEach, 0.50),
		"core.plan_ns_p99":             percentile(st.PlanNsEach, 0.99),
		"core.plan_share":              float64(st.PlanNs) / est,
		"core.budget_bound_share":      share(st.BudgetBound, st.Invocations),
		"core.replay_mismatch":         float64(st.Mismatches),
		"core.replay_coverage":         layerNs / float64(st.PlanNs),
		"yds.request_calls":            float64(st.RequestCalls) / r,
		"yds.request_ns_mean":          perCall(st.RequestNs, st.RequestCalls),
		"yds.tasks_mean":               share(st.RequestTasks, st.RequestCalls),
		"yds.schedule_calls":           float64(st.ScheduleCalls) / r,
		"yds.schedule_ns_mean":         perCall(st.ScheduleNs, st.ScheduleCalls),
		"dist.waterfill_calls":         float64(st.WaterfillCalls) / r,
		"dist.waterfill_ns_mean":       perCall(st.WaterfillNs, st.WaterfillCalls),
		"dist.memo_hit_share":          share(st.MemoHits, st.BudgetBound),
		"qeopt.online_calls":           float64(st.OnlineCalls) / r,
		"qeopt.online_ns_mean":         perCall(st.OnlineNs, st.OnlineCalls),
		"qeopt.ready_mean":             share(st.OnlineReady, st.OnlineCalls),
		"job.next_calls":               float64(st.NextCalls) / r,
		"job.source_share":             float64(st.SourceNs) / est,
		"cluster.plan_imbalance":       imbalance,
		"cluster.parallel_speedup":     speedup,
		"cluster.serial_share":         serial,
		"cluster.hedge_win_share":      share(ref.HedgeWins, ref.Hedged),
		"admission.shed_share":         share(ref.Shed, ref.Jobs),
		"telemetry.armed_ns_per_event": median(armedNs),
		"go.alloc_bytes_per_job":       median(field(plainMax, perJob)),
		"go.gc_cycles":                 median(field(plainMax, func(s sample) float64 { return float64(s.GCCycles) })),
		"host.probe_ms":                median(field(m.of(plainMode), probeMsOf)),
		"host.raw_jobs_per_s":          ratioOfSums(field(plainMax, jobsOf), field(plainMax, runSOf)),
		"host.nproc":                   float64(runtime.NumCPU()),
		"host.gomaxprocs":              float64(runtime.GOMAXPROCS(0)),
		"bench.trace_overhead_ratio":   calibratedJobsPerS(m.of("traced")) / calibratedJobsPerS(plain),
	}
}

// nonFinite returns, sorted, the names of values JSON cannot carry.
func nonFinite(vals map[string]float64) []string {
	var bad []string
	for k, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, k)
		}
	}
	slices.Sort(bad)
	return bad
}
