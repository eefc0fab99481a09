package cluster

import (
	"strconv"

	"dessched/internal/telemetry"
	"dessched/internal/telemetry/flightrec"
	"dessched/internal/telemetry/span"
	"dessched/internal/trace"
)

// Instrument attaches observability sinks to a cluster run. Every field
// is optional; the zero value (or a nil *Instrument on Config) disables
// everything and keeps the engines on their zero-alloc fast path.
//
// Determinism: all instrumentation timestamps come from the simulation
// clock, per-server collectors run inside their server's engine, and the
// fold into the shared sinks happens sequentially in server index order
// after the worker pool drains — so traces, series, and merged metrics
// are bit-identical across Workers values.
type Instrument struct {
	// Tracer receives the hierarchical span trace: a "cluster" root, a
	// "dispatch" summary, one "epoch" span per budget-reflow epoch
	// (water level, committed and leftover watts), and per-server
	// subtrees whose "replan"/"fault-edge" instants come from the engine
	// event stream. Over a lazy job source it must be a sampling tracer
	// (span.NewSampling); the structural spans are kept either way.
	Tracer *span.Tracer

	// Series receives one Sample per epoch per server (folded in server
	// index order). Its OnSample hook, if set, fires live from the
	// per-server engines' goroutines as epochs close — it must be safe
	// for concurrent calls (e.g. a channel send).
	Series *telemetry.SeriesRecorder

	// Registry receives every per-server sim collector's metrics, merged
	// with a prepended "server" label, plus cluster_* summary gauges.
	Registry *telemetry.Registry

	// Traces records every server's executed schedule into
	// Result.Traces, with dispatch decisions and budget windows in
	// Result.DispatchEvents / Result.BudgetWindows — the inputs of a
	// telemetry.ClusterTrace. They grow with the run, so Traces needs a
	// job slice (Run, or a job.SliceSource).
	Traces bool

	// Flight arms a per-server flight recorder: each engine feeds its
	// own fixed ring (derived via Child, folded back with Absorb in
	// server index order), and dumps trip on fault edges, shed bursts,
	// or explicit Trip calls. Fixed memory per server, so it is allowed
	// — and intended — over lazy sources.
	Flight *flightrec.Recorder
}

// enabled reports whether any sink is attached.
func (ins *Instrument) enabled() bool {
	return ins != nil && (ins.Tracer != nil || ins.Series != nil || ins.Registry != nil || ins.Traces || ins.Flight != nil)
}

// serverProbes is the per-server instrumentation state, fed by its
// server's engine and folded after the final barrier.
type serverProbes struct {
	tracer  *span.Tracer
	root    span.ID // the tracer's "server" root span
	rec     *telemetry.SeriesRecorder
	sampler *telemetry.EpochSampler
	reg     *telemetry.Registry
	col     *telemetry.SimCollector
	trace   *trace.Trace
	flight  *flightrec.Recorder
}

// foldInstrumentation merges the per-server probes and the run-level
// context into the shared sinks, sequentially in server index order.
func foldInstrumentation(ins *Instrument, root span.ID, probes []serverProbes, res *Result) {
	if !ins.enabled() {
		return
	}
	for s := range probes {
		p := &probes[s]
		if ins.Tracer != nil && p.tracer != nil {
			ins.Tracer.Adopt(p.tracer, root)
		}
		if ins.Series != nil && p.rec != nil {
			ins.Series.Absorb(p.rec.Samples())
		}
		if ins.Registry != nil && p.reg != nil {
			ins.Registry.Merge(p.reg.Snapshot(), telemetry.Label{Name: "server", Value: strconv.Itoa(s)})
		}
		if ins.Flight != nil && p.flight != nil {
			ins.Flight.Absorb(p.flight)
		}
	}
	if ins.Registry != nil {
		ins.Registry.Gauge("cluster_servers", "Fleet size of the cluster run.").Set(float64(res.Servers))
		ins.Registry.Gauge("cluster_norm_quality", "Fleet normalized quality (quality / max quality).").Set(res.NormQuality)
		ins.Registry.Gauge("cluster_energy_joules", "Fleet total energy, joules.").Set(res.Energy)
		ins.Registry.Gauge("cluster_peak_power_sum_watts", "Sum of per-server peak power, watts.").Set(res.PeakPowerSum)
	}
}
