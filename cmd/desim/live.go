package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dessched"
	"dessched/internal/runlog"
	"dessched/internal/telemetry"
)

// statusLog is desim's side-band status channel: deterministic
// structured lines on stderr (no wall-clock timestamps — see
// internal/runlog) so result tables on stdout stay machine-diffable.
var statusLog = runlog.New(os.Stderr)

// liveTicker returns an OnSample hook rendering epoch samples as a
// terminal ticker — the CLI view of the same per-epoch stream that
// GET /v1/stream serves over SSE. Cluster engines fire the hook from
// concurrent worker goroutines, so the printer is mutex-guarded.
func liveTicker(w io.Writer) func(telemetry.Sample) {
	var mu sync.Mutex
	return func(s telemetry.Sample) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(w, "live t=%7.1fs server %2d epoch %4d | q=%8.3f e=%8.1fJ budget=%6.1fW queue=%3d avail=%.2f done=%d ddl=%d shed=%d\n",
			s.Time, s.Server, s.Epoch, s.Quality, s.EnergyJ, s.BudgetW,
			s.QueueDepth, s.Availability, s.Completed, s.Deadlined, s.Shed)
	}
}

// writeSeriesFile serializes an epoch-series recorder by extension:
// .csv writes CSV, anything else the stable dessched-series/v1 JSON.
func writeSeriesFile(path string, rec *dessched.SeriesRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.EqualFold(filepath.Ext(path), ".csv") {
		err = dessched.WriteSeriesCSV(f, rec)
	} else {
		err = dessched.WriteSeriesJSON(f, rec)
	}
	if err != nil {
		return err
	}
	statusLog.Info("series written", "samples", rec.Len(), "path", path)
	return nil
}

// writeSpanFiles writes the span trace as stable JSON and/or Perfetto.
func writeSpanFiles(jsonPath, perfettoPath string, tr *dessched.SpanTracer) error {
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := dessched.WriteSpanJSON(f, tr); err != nil {
			return err
		}
		statusLog.Info("spans written", "spans", tr.Len(), "sampled_out", tr.SampledOut(), "path", jsonPath)
	}
	if perfettoPath != "" {
		f, err := os.Create(perfettoPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := dessched.WriteSpanPerfetto(f, tr); err != nil {
			return err
		}
		statusLog.Info("spans perfetto written", "path", perfettoPath, "viewer", "https://ui.perfetto.dev")
	}
	return nil
}

// simInstrumentFlags are cmdSim's observability outputs, shared by the
// single-server and cluster paths.
type simInstrumentFlags struct {
	live          bool
	spansOut      string
	spansPerfetto string
	seriesOut     string
	epoch         float64
	spansSample   float64 // -spans-sample: keep rate for hot "replan" spans (0 = full trace)
	flightOut     string  // -flight: write tripped flight-recorder dumps here
	ledgerPath    string  // -ledger: append a dessched-run/v1 manifest here
	seed          uint64  // workload seed, reused as the sampling seed
	workloadFile  string  // -workload arg, hashed into the ledger entry
}

func (fl simInstrumentFlags) wantSpans() bool  { return fl.spansOut != "" || fl.spansPerfetto != "" }
func (fl simInstrumentFlags) wantSeries() bool { return fl.seriesOut != "" || fl.live }

// newSimTracer builds the span tracer cmdSim's flags describe: the full
// tracer by default, a deterministic sampling tracer when -spans-sample
// is set. Sampling keeps every structural span (the engine starts those
// via StartUnsampled) and thins only the hot per-event "replan"
// instants, so the trace skeleton survives at any rate.
func newSimTracer(sample float64, seed uint64) *dessched.SpanTracer {
	if sample <= 0 {
		return dessched.NewSpanTracer()
	}
	return dessched.NewSamplingSpanTracer(dessched.SpanSampleConfig{
		Seed: seed, Rate: 1, Rates: map[string]float64{"replan": sample},
	})
}

// writeFlightFile writes the recorder's captured bundles as
// dessched-flight/v1 JSON. A quiet run trips one final manual dump so
// the file always records that the recorder was armed and listening.
func writeFlightFile(path string, rec *dessched.FlightRecorder, endOfRun float64) error {
	if len(rec.Dumps()) == 0 {
		rec.Trip("manual", endOfRun, "end-of-run dump requested by -flight")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := dessched.WriteFlightJSON(f, rec); err != nil {
		return err
	}
	statusLog.Info("flight dumps written", runlog.Sim(endOfRun),
		"dumps", len(rec.Dumps()), "trips", rec.Trips(), "seen", rec.Seen(),
		"path", path, "inspect", "destrace -in "+path)
	return nil
}

// recordLedger stamps the process-level provenance fields and appends
// the manifest line.
func recordLedger(path string, e dessched.LedgerEntry) error {
	e.PeakRSSBytes = uint64(peakRSSBytes())
	if err := dessched.AppendLedger(path, e); err != nil {
		return err
	}
	statusLog.Info("ledger manifest appended", "path", path, "query", "desim ledger list -in "+path)
	return nil
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

// hashWorkloadFile fingerprints the workload input file for ledger
// entries; "" means the run used the synthetic generator (the seed and
// config fingerprint then pin the workload).
func hashWorkloadFile(path string) string {
	if path == "" {
		return ""
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return dessched.LedgerHashBytes(b)
}

// ledgerClasses converts per-class results into ledger class metrics.
func ledgerClasses(classes []dessched.ClassResult) []dessched.LedgerClassMetric {
	var out []dessched.LedgerClassMetric
	for _, c := range classes {
		out = append(out, dessched.LedgerClassMetric{
			Class: c.Class, NormQuality: c.NormQuality,
			Completed: c.Completed, Deadlined: c.Deadlined, Shed: c.Shed,
		})
	}
	return out
}

// clusterLedgerEntry assembles a fleet run's manifest; the caller stamps
// the flight-dump count before appending.
func clusterLedgerEntry(fl simInstrumentFlags, ccfg dessched.ClusterConfig,
	horizon float64, res dessched.ClusterResult) dessched.LedgerEntry {
	budget := ccfg.GlobalBudget
	if budget == 0 {
		budget = ccfg.Server.Budget * float64(ccfg.Servers)
	}
	return dessched.LedgerEntry{
		Cmd:          "sim",
		Fingerprint:  dessched.LedgerFingerprint(dessched.FingerprintClusterConfig(ccfg)),
		WorkloadHash: hashWorkloadFile(fl.workloadFile),
		Seed:         fl.seed,
		Policy:       ccfg.Policy,
		Workload:     fl.workloadFile,
		Servers:      ccfg.Servers,
		Cores:        ccfg.Server.Cores,
		BudgetW:      budget,
		DurationS:    horizon,
		Jobs:         res.Arrived,
		Quality:      res.Quality,
		NormQuality:  res.NormQuality,
		EnergyJ:      res.Energy,
		Completed:    res.Completed,
		Deadlined:    res.Deadlined,
		Shed:         res.Shed,
		Classes:      ledgerClasses(res.Classes),
	}
}

// runClusterSim is cmdSim's -servers > 1 path: one fleet run over src
// with the full instrumentation surface — live ticker, span trace, epoch
// series, merged telemetry, flight dumps, and a cluster-trace bundle for
// destrace — plus the recovery stack (hedged dispatch, epoch-snapshot
// checkpoint/resume). The probes that grow with the run (-trace,
// -perfetto, an unsampled -spans) need a materialized job slice as src
// (dessched.NewSliceJobSource); cmdSim materializes only for those.
func runClusterSim(servers int, spec string, cfg dessched.ServerConfig,
	src dessched.JobSource, horizon float64, dispatch dessched.DispatchPolicy,
	classes []string, globalBudget float64,
	chaosSeed uint64, hedge dessched.HedgeConfig,
	checkpointOut, resumeIn string, checkpointEvery float64,
	fl simInstrumentFlags, traceOut, perfettoOut, telemetryOut string) error {

	ccfg := dessched.ClusterConfig{
		Servers:      servers,
		Server:       cfg,
		Policy:       spec,
		Dispatch:     dispatch,
		Classes:      classes,
		GlobalBudget: globalBudget,
		Epoch:        fl.epoch,
		Hedge:        hedge,
	}

	ins := &dessched.ClusterInstrument{}
	var tracer *dessched.SpanTracer
	if fl.wantSpans() {
		tracer = newSimTracer(fl.spansSample, fl.seed)
		ins.Tracer = tracer
	}
	var rec *dessched.SeriesRecorder
	if fl.wantSeries() {
		rec = dessched.NewSeriesRecorder(0)
		if fl.live {
			rec.OnSample = liveTicker(os.Stdout)
		}
		ins.Series = rec
	}
	var reg *dessched.MetricsRegistry
	if telemetryOut != "" {
		reg = dessched.NewMetricsRegistry()
		ins.Registry = reg
	}
	var flightRec *dessched.FlightRecorder
	if fl.flightOut != "" {
		flightRec = dessched.NewFlightRecorder(dessched.FlightConfig{})
		ins.Flight = flightRec
	}
	ins.Traces = traceOut != "" || perfettoOut != ""
	// Checkpointing is incompatible with instrumentation (telemetry state
	// is not captured in snapshots), so only attach the sinks when
	// something asked for them.
	if ins.Tracer != nil || ins.Series != nil || ins.Registry != nil || ins.Flight != nil || ins.Traces {
		if checkpointOut != "" || resumeIn != "" {
			return fmt.Errorf("cluster -checkpoint/-resume cannot be combined with -trace/-perfetto/-telemetry/-spans/-series/-live/-flight")
		}
		ccfg.Instrument = ins
	}

	snapshots := 0
	if checkpointOut != "" {
		// -checkpoint-every is simulated seconds; fleet snapshots land on
		// dispatch-epoch boundaries, so convert and round down (min 1 epoch).
		epoch := fl.epoch
		if epoch <= 0 {
			epoch = 1
		}
		every := int(checkpointEvery / epoch)
		if every < 1 {
			every = 1
		}
		ccfg.StreamCheckpoint = &dessched.ClusterStreamCheckpointConfig{
			Every: every,
			Sink: func(s *dessched.ClusterStreamSnapshot) error {
				b, err := dessched.EncodeClusterStreamSnapshot(s)
				if err != nil {
					return err
				}
				snapshots++
				return os.WriteFile(checkpointOut, b, 0o644)
			},
		}
	}

	if chaosSeed > 0 {
		faults, err := dessched.ClusterChaosFaults(chaosSeed, horizon, servers, cfg.Cores)
		if err != nil {
			return err
		}
		ccfg.Faults = faults
	}

	start := time.Now()
	var res dessched.ClusterResult
	var err error
	if resumeIn != "" {
		b, err := os.ReadFile(resumeIn)
		if err != nil {
			return err
		}
		snap, err := dessched.DecodeClusterStreamSnapshot(b)
		if err != nil {
			return err
		}
		statusLog.Info("resume", "epoch", snap.Epoch, "jobs_fed", snap.JobsFed, "path", resumeIn)
		if res, err = dessched.ResumeClusterStream(ccfg, src, snap); err != nil {
			return err
		}
	} else if res, err = dessched.SimulateClusterStream(ccfg, src); err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	if checkpointOut != "" {
		statusLog.Info("checkpoint", "snapshots", snapshots, "path", checkpointOut)
	}
	if wall > 0 {
		statusLog.Info("throughput", "jobs", res.Arrived, "events", res.Events,
			"wall_s", fmt.Sprintf("%.1f", wall), "events_per_s", fmt.Sprintf("%.0f", float64(res.Events)/wall),
			"peak_rss_mib", fmt.Sprintf("%.0f", float64(peakRSSBytes())/(1<<20)))
	}

	fmt.Printf("cluster: %d × %s servers, dispatch %s, global budget %.0f W\n",
		res.Servers, spec, res.Dispatch, globalBudget)
	fmt.Printf("quality %.2f / %.2f (norm %.4f), energy %.1f J, peak-power sum %.1f W\n",
		res.Quality, res.MaxQuality, res.NormQuality, res.Energy, res.PeakPowerSum)
	fmt.Printf("arrived %d, completed %d, deadlined %d, shed %d, span %.2f s\n",
		res.Arrived, res.Completed, res.Deadlined, res.Shed, res.Span)
	if res.Retried > 0 || res.Abandoned > 0 || res.Hedged > 0 {
		fmt.Printf("recovered: retried %d, abandoned %d, retry quality %.3f, hedged %d (wins %d, %+.3f quality)\n",
			res.Retried, res.Abandoned, res.RetryQuality, res.Hedged, res.HedgeWins, res.HedgeQuality)
	}
	// A thousand-server fleet would print a thousand share lines; keep the
	// per-server breakdown to small fleets.
	if len(res.PerServer) <= 16 {
		for _, sr := range res.PerServer {
			fmt.Printf("  server %2d: %4d jobs, share %6.1f W, norm quality %.4f, energy %8.1f J\n",
				sr.Server, sr.Jobs, sr.BudgetShareW, sr.Result.NormQuality, sr.Result.Energy)
		}
	}
	printClassResults(res.Classes)

	if ins.Traces {
		ct := &dessched.ClusterTraceFile{
			Servers:   res.Servers,
			Cores:     cfg.Cores,
			PerServer: res.Traces,
			Dispatch:  res.DispatchEvents,
			Budget:    res.BudgetWindows,
			Faults:    ccfg.Faults,
		}
		if traceOut != "" {
			if !strings.EqualFold(filepath.Ext(traceOut), ".json") {
				return fmt.Errorf("cluster -trace writes a JSON bundle; use a .json path, got %q", traceOut)
			}
			f, err := os.Create(traceOut)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := dessched.WriteClusterTraceJSON(f, ct); err != nil {
				return err
			}
			statusLog.Info("trace written", "path", traceOut, "inspect", "destrace -in "+traceOut)
		}
		if perfettoOut != "" {
			f, err := os.Create(perfettoOut)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := dessched.WriteClusterPerfetto(f, ct); err != nil {
				return err
			}
			statusLog.Info("perfetto written", "path", perfettoOut, "viewer", "https://ui.perfetto.dev")
		}
	}
	if tracer != nil {
		if err := writeSpanFiles(fl.spansOut, fl.spansPerfetto, tracer); err != nil {
			return err
		}
	}
	if flightRec != nil {
		if err := writeFlightFile(fl.flightOut, flightRec, res.Span); err != nil {
			return err
		}
	}
	if fl.seriesOut != "" {
		if err := writeSeriesFile(fl.seriesOut, rec); err != nil {
			return err
		}
	}
	if reg != nil {
		f, err := os.Create(telemetryOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := telemetry.WritePrometheus(f, reg.Snapshot()); err != nil {
			return err
		}
		statusLog.Info("telemetry written", "path", telemetryOut)
	}
	if fl.ledgerPath != "" {
		e := clusterLedgerEntry(fl, ccfg, horizon, res)
		if flightRec != nil {
			e.FlightDumps = len(flightRec.Dumps())
		}
		if err := recordLedger(fl.ledgerPath, e); err != nil {
			return err
		}
	}
	return nil
}
