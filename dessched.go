// Package dessched implements DES (Dynamic Equal Sharing), the
// energy-efficient scheduler for best-effort interactive services of
//
//	Du, Sun, He, He, Bader, Zhang. "Energy-Efficient Scheduling for
//	Best-Effort Interactive Services to Achieve High Response Quality."
//	IEEE IPDPS 2013.
//
// Best-effort interactive requests (web search, video-on-demand,
// recommendations) can be partially executed: processing a request longer
// yields better results with diminishing returns, modeled by a concave
// quality function, and every request carries a rigid deadline. DES
// schedules such requests on a multicore server with per-core DVFS under a
// global power budget, optimizing the lexicographic metric ⟨quality,
// energy⟩: maximize total response quality first, then minimize energy
// among quality-optimal schedules.
//
// The package is a facade over the building blocks in internal/:
//
//   - NewDES / NewBaseline construct scheduling policies
//     (DES = C-RR job distribution + WF power distribution + Online-QE);
//   - Simulate runs a policy over a request stream on the event-driven
//     multicore simulator;
//   - GenerateWorkload synthesizes the paper's web-search workload
//     (Poisson arrivals, bounded-Pareto demands, 150 ms deadlines);
//   - OnlineQE / QEOpt expose the single-core schedulers directly;
//   - Experiments lists runners that regenerate every figure of the
//     paper's evaluation.
//
// A minimal session:
//
//	cfg := dessched.PaperServer()               // 16 cores, 320 W, P = 5s²
//	jobs, _ := dessched.GenerateWorkload(dessched.PaperWorkload(120))
//	res, _ := dessched.Simulate(cfg, jobs, dessched.NewDES(dessched.CDVFS))
//	fmt.Println(res.NormQuality, res.Energy)
package dessched

import (
	"io"

	"dessched/internal/admission"
	"dessched/internal/baseline"
	"dessched/internal/core"
	"dessched/internal/experiments"
	"dessched/internal/hw"
	"dessched/internal/job"
	"dessched/internal/metrics"
	"dessched/internal/power"
	"dessched/internal/qeopt"
	"dessched/internal/quality"
	"dessched/internal/sim"
	"dessched/internal/trace"
	"dessched/internal/workload"
	"dessched/internal/workloadspec"
)

// Core model types.
type (
	// Job is one best-effort interactive request: release time, rigid
	// deadline, service demand in processing units (1 GHz core = 1000
	// units/s), and whether partial execution yields partial quality.
	Job = job.Job
	// JobID identifies a job within a workload.
	JobID = job.ID
	// Ready is a job with execution progress, as seen by online planners.
	Ready = job.Ready

	// PowerModel is the per-core power function P(s) = A·s^Beta + B.
	PowerModel = power.Model
	// SpeedLadder is a discrete set of permitted core speeds (GHz); an
	// empty ladder means continuous DVFS.
	SpeedLadder = power.Ladder

	// QualityFunction maps a request's processed volume to its response
	// quality; it must be non-decreasing and (for optimality) concave.
	QualityFunction = quality.Function

	// ServerConfig describes the simulated multicore server.
	ServerConfig = sim.Config
	// Triggers selects the scheduling events that invoke the policy.
	Triggers = sim.Triggers
	// Policy is a pluggable multicore scheduling algorithm.
	Policy = sim.Policy
	// Result summarizes a simulation run.
	Result = sim.Result

	// WorkloadConfig describes a synthetic request stream.
	WorkloadConfig = workload.Config
	// DemandDistribution is the bounded-Pareto service-demand model.
	DemandDistribution = workload.BoundedPareto

	// Arch is the processor DVFS capability (CDVFS, SDVFS, NoDVFS).
	Arch = core.Arch
	// BaselineOrder is the queueing discipline of the greedy baselines.
	BaselineOrder = baseline.Order

	// Trace is an executed-schedule record for replay and inspection.
	Trace = trace.Trace
	// CoreConfig is the per-core environment for the single-core planners.
	CoreConfig = qeopt.Config
	// CorePlan is an executable single-core schedule.
	CorePlan = qeopt.Plan

	// Experiment regenerates one figure or table of the paper.
	Experiment = experiments.Experiment
	// ExperimentOptions controls experiment fidelity.
	ExperimentOptions = experiments.Options
	// ResultTable is the tabular output of an experiment.
	ResultTable = experiments.Table

	// Fault degrades one core during a time window (throttling/outage).
	Fault = sim.Fault
	// BudgetFault drops the power budget to a fraction during a window.
	BudgetFault = sim.BudgetFault
	// Burst scales the workload arrival rate during a window.
	Burst = workload.Burst
	// ChaosConfig parameterizes a seeded random fault schedule.
	ChaosConfig = sim.ChaosConfig
	// ChaosPlan is one sampled fault schedule (core, budget, burst faults).
	ChaosPlan = sim.ChaosPlan
	// AdmissionConfig configures the load-shedding stage in front of the
	// scheduler queue.
	AdmissionConfig = admission.Config
	// AdmissionPolicy selects how jobs are shed when the queue overflows.
	AdmissionPolicy = admission.Policy
	// ResilienceReport compares a faulted run against its fault-free twin.
	ResilienceReport = metrics.ResilienceReport
	// JobOutcome is one job's recorded fate (Config.CollectJobs).
	JobOutcome = sim.JobOutcome
	// JobSummary aggregates per-job outcomes (latency percentiles, SLO view).
	JobSummary = metrics.JobSummary
	// DiurnalConfig describes a sinusoidal day/night request stream.
	DiurnalConfig = workload.DiurnalConfig

	// SimEvent is one notable simulation occurrence (arrival, invocation,
	// departure, fault edge) delivered to ServerConfig.Observer.
	SimEvent = sim.Event
	// EventKind classifies simulation events.
	EventKind = sim.EventKind
	// EventCounter tallies simulation events by kind.
	EventCounter = sim.EventCounter
)

// Simulation event kinds.
const (
	EvArrival   = sim.EvArrival
	EvInvoke    = sim.EvInvoke
	EvComplete  = sim.EvComplete
	EvDeadline  = sim.EvDeadline
	EvDiscard   = sim.EvDiscard
	EvFaultEdge = sim.EvFaultEdge
	EvShed      = sim.EvShed
	EvRequeue   = sim.EvRequeue
)

// Admission-control policies for the load-shedding stage.
const (
	// AdmitAll disables shedding (the default).
	AdmitAll = admission.None
	// TailDrop sheds the newest arrival once the queue exceeds MaxQueue.
	TailDrop = admission.TailDrop
	// QualityAware sheds the queued job with the lowest marginal quality
	// per unit of demand — the cheapest work to lose.
	QualityAware = admission.QualityAware
	// AdmissionPriority sheds from the lowest class-priority tier first
	// (lowest marginal quality within the tier); a higher tier is never
	// shed while a lower one is queued. ServerConfig.ClassPriority
	// supplies the tiers.
	AdmissionPriority = admission.Priority
)

// DefaultChaos returns a moderate chaos schedule generator: a few core
// faults (some outages), one budget fault, and one arrival burst sampled
// deterministically from seed over the horizon.
func DefaultChaos(seed uint64, horizon float64, cores int) ChaosConfig {
	return sim.DefaultChaos(seed, horizon, cores)
}

// Resilience compares a faulted run against its fault-free twin: quality
// retained, energy overhead, shed fraction, deadline and violation deltas.
func Resilience(baseline, faulted Result) ResilienceReport {
	return metrics.Resilience(baseline, faulted)
}

// NewEventCounter returns an empty simulation-event tally; pass its Observe
// method as ServerConfig.Observer.
func NewEventCounter() *EventCounter { return sim.NewEventCounter() }

// Architecture models (§V-A).
const (
	// CDVFS is core-level DVFS: every core scales independently — the
	// architecture DES is designed for.
	CDVFS = core.CDVFS
	// SDVFS is system-level DVFS: all cores share one scalable speed.
	SDVFS = core.SDVFS
	// NoDVFS is a fixed-speed processor without power management.
	NoDVFS = core.NoDVFS
)

// Baseline queueing disciplines (§V-E).
const (
	// FCFS serves in arrival order (= EDF under agreeable deadlines).
	FCFS = baseline.FCFS
	// LJF serves the largest service demand first.
	LJF = baseline.LJF
	// SJF serves the smallest service demand first.
	SJF = baseline.SJF
	// EDF serves the earliest absolute deadline first.
	EDF = baseline.EDF
	// PrioSJF serves the highest class-priority tier first, SJF within it
	// (ServerConfig.ClassPriority supplies the tiers).
	PrioSJF = baseline.PrioSJF
	// PrioEDF serves the highest class-priority tier first, EDF within it.
	PrioEDF = baseline.PrioEDF
)

// NewDES returns the DES policy for an architecture model.
func NewDES(arch Arch) Policy { return core.New(arch) }

// NewBaseline returns an FCFS/LJF/SJF policy; wf enables dynamic
// water-filling power distribution instead of the static equal share.
func NewBaseline(order BaselineOrder, wf bool) Policy { return baseline.New(order, wf) }

// NewStaticPowerDES returns DES with static equal power sharing instead of
// water-filling — the ablation isolating the WF policy's contribution.
func NewStaticPowerDES(arch Arch) Policy { return core.NewStaticPower(arch) }

// Simulate runs the policy over the job stream and returns the aggregate
// quality/energy result. Options customize the run without touching the
// config: WithContext for cancelation, WithObserver/WithRecorder for event
// and schedule hooks, WithTelemetry for a full metrics collector, WithChaos
// for an injected fault schedule, and WithCheckpoint for periodic
// snapshots. No option changes the result.
func Simulate(cfg ServerConfig, jobs []Job, p Policy, opts ...SimOption) (Result, error) {
	return simulate(cfg, opts, func(run ServerConfig) (*sim.Stream, error) { return sim.Start(run, jobs, p) })
}

// GenerateWorkload synthesizes a request stream (deterministic per seed).
func GenerateWorkload(cfg WorkloadConfig) ([]Job, error) { return workload.Generate(cfg) }

// PaperServer returns the paper's §V-B server: 16 cores, a 320 W dynamic
// power budget, P = 5·s², exponential quality with c = 0.003, and the
// paper's triggering events (500 ms quantum, counter 8, idle-core).
func PaperServer() ServerConfig { return sim.PaperConfig() }

// PaperWorkload returns the paper's §V-B request stream at the given
// arrival rate: Poisson arrivals, bounded-Pareto demands (α=3, 130–1000
// units, mean ≈192), deadline = release + 150 ms, all jobs partial.
func PaperWorkload(rate float64) WorkloadConfig { return workload.DefaultConfig(rate) }

// ApplyArch adjusts a server config for an architecture model (No-DVFS
// cores burn their base power even while idle).
func ApplyArch(cfg *ServerConfig, arch Arch) { core.ApplyArch(cfg, arch) }

// ExponentialQuality returns the paper's Eq. (1) quality function with
// concavity multiplier c, normalized so q(1000) = 1.
func ExponentialQuality(c float64) QualityFunction { return quality.NewExponential(c) }

// SqrtQuality returns q(x) = sqrt(x/span) clamped at 1 — an alternative
// strictly concave family for services gentler than Eq. (1).
func SqrtQuality(span float64) QualityFunction { return quality.Sqrt{Span: span} }

// QualityPoint is one breakpoint of a piecewise-linear quality function.
type QualityPoint = quality.Point

// PiecewiseQuality builds a concave piecewise-linear quality function
// through the breakpoints (plus the origin); it errors when the points are
// not monotone and concave.
func PiecewiseQuality(points ...QualityPoint) (QualityFunction, error) {
	return quality.NewPiecewise(points...)
}

// DefaultPowerModel is the paper's simulation power function P = 5·s².
func DefaultPowerModel() PowerModel { return power.Default }

// OpteronPowerModel is the §V-G regression fit P = 2.6075·s^1.791 + 9.2562.
func OpteronPowerModel() PowerModel { return power.Opteron }

// DiscreteLadder builds a discrete speed ladder from the given speeds.
func DiscreteLadder(speeds ...float64) SpeedLadder { return power.NewLadder(speeds...) }

// OnlineQE computes the myopic optimal single-core plan (§III-B) for the
// ready jobs at time now: Quality-OPT at the budget speed fixes each job's
// volume, Energy-OPT picks the slowest feasible speeds.
func OnlineQE(cfg CoreConfig, now float64, ready []Ready) (CorePlan, error) {
	return qeopt.Online(cfg, now, ready)
}

// NewTrace returns an execution recorder; assign it to
// ServerConfig.Recorder to capture the schedule a simulation runs.
func NewTrace(cores int) *Trace { return trace.New(cores) }

// OpteronCluster returns the emulated §V-G validation testbed.
func OpteronCluster(cores int) HardwareCluster { return hw.Opteron(cores) }

// SummarizeJobs computes latency percentiles and satisfaction rates from a
// run made with ServerConfig.CollectJobs.
func SummarizeJobs(outcomes []JobOutcome) (JobSummary, error) {
	return metrics.SummarizeJobs(outcomes)
}

// GenerateDiurnalWorkload synthesizes a request stream whose rate follows
// a sinusoidal day/night profile (non-homogeneous Poisson by thinning).
func GenerateDiurnalWorkload(cfg DiurnalConfig) ([]Job, error) {
	return workload.GenerateDiurnal(cfg)
}

// SaveJobs writes a job stream as CSV for later bit-identical replay;
// LoadJobs reads it back.
func SaveJobs(w io.Writer, jobs []Job) error { return workload.SaveJobs(w, jobs) }

// LoadJobs parses a SaveJobs stream and validates it.
func LoadJobs(r io.Reader) ([]Job, error) { return workload.LoadJobs(r) }

// Declarative workloads (dessched-workload/v1).
type (
	// WorkloadSpec is a validated declarative workload: named SLO job
	// classes with per-class rates, deadlines, demand distributions,
	// quality functions, and multi-period rate schedules, compiled
	// deterministically into a job stream.
	WorkloadSpec = workloadspec.Spec
	// WorkloadClass is one named job class of a WorkloadSpec.
	WorkloadClass = workloadspec.ClassSpec
	// WorkloadBurst is a rate-multiplier window of a WorkloadSpec (the
	// declarative counterpart of Burst).
	WorkloadBurst = workloadspec.BurstSpec
	// ClassResult is one job class's slice of a simulation result; classed
	// runs carry one per class in Result.Classes / ClusterResult.Classes.
	ClassResult = sim.ClassResult
	// ClassResilience is one job class's slice of a resilience report.
	ClassResilience = metrics.ClassResilience
)

// WorkloadSchemaV1 is the schema tag of v1 workload specs.
const WorkloadSchemaV1 = workloadspec.SchemaV1

// DecodeWorkloadSpec parses and validates a JSON workload spec; errors are
// typed *cfgerr.Error values.
func DecodeWorkloadSpec(b []byte) (*WorkloadSpec, error) { return workloadspec.Decode(b) }

// CompileWorkload compiles a spec into its job stream — deterministic per
// spec seed, merged across classes by release time with a stable tie-break.
func CompileWorkload(s *WorkloadSpec) ([]Job, error) { return workloadspec.Compile(s) }

// WorkloadQualityByClass maps class names to the quality functions the spec
// selects for them (nil when no class overrides the server default); assign
// it to ServerConfig.ClassQuality.
func WorkloadQualityByClass(s *WorkloadSpec) (map[string]QualityFunction, error) {
	return s.QualityByClass()
}

// PaperWorkloadSpec is the declarative equivalent of PaperWorkload: a
// single-class spec that compiles bit-identically to
// GenerateWorkload(PaperWorkload(rate)) for the same seed and duration.
func PaperWorkloadSpec(rate float64) *WorkloadSpec { return workloadspec.PaperDefault(rate) }

// Experiments returns the runners that regenerate every evaluation figure.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID looks up one experiment runner (e.g. "fig3", "tput").
func ExperimentByID(id string) (Experiment, bool) { return experiments.ByID(id) }
