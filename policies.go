package dessched

import (
	"io"

	"dessched/internal/admission"
	"dessched/internal/cluster"
	"dessched/internal/experiments"
	"dessched/internal/registry"
	"dessched/internal/sim"
)

// Unified policy registry. Every named policy the simulator accepts —
// scheduling policies, ready-queue disciplines, admission policies, and
// cluster dispatch policies — is catalogued here with its canonical name,
// aliases, and a one-line summary. Each kind has one name table; the CLI,
// the HTTP API, and the facade parse helpers below all resolve names
// through it, so every layer accepts the same names and rejects unknown
// ones with the same typed *ConfigError. Aliases canonicalize: parsing any
// name yields a value whose String() (or spec Name) is the canonical name.
type (
	// PolicyInfo describes one registered policy (kind, canonical name,
	// aliases, summary).
	PolicyInfo = registry.Entry
	// PolicyKind classifies a registry entry by the configuration slot it
	// fills.
	PolicyKind = registry.Kind

	// QueueOrder is the ready-queue discipline the engine applies before
	// each policy invocation (ServerConfig.QueueOrder).
	QueueOrder = sim.QueueOrder
	// SchedulerSpec is a parsed per-server scheduling policy: a factory
	// for fresh policy instances plus the config adjustment it implies.
	SchedulerSpec = cluster.PolicySpec
)

// Policy kinds of the unified registry.
const (
	// PolicyScheduler entries are per-server scheduling policies
	// (ClusterConfig.Policy, sweep policies, ParseSchedulerPolicy).
	PolicyScheduler = registry.KindScheduler
	// PolicyQueueOrder entries are ready-queue disciplines
	// (ServerConfig.QueueOrder).
	PolicyQueueOrder = registry.KindQueueOrder
	// PolicyAdmission entries are load-shedding policies
	// (AdmissionConfig.Policy).
	PolicyAdmission = registry.KindAdmission
	// PolicyDispatch entries are cluster front-end routing policies
	// (ClusterConfig.Dispatch).
	PolicyDispatch = registry.KindDispatch
)

// Ready-queue disciplines for ServerConfig.QueueOrder.
const (
	// OrderFCFS serves the ready queue in arrival order — the default,
	// bit-identical to runs predating the knob.
	OrderFCFS = sim.OrderFCFS
	// OrderSJF orders by ascending remaining demand.
	OrderSJF = sim.OrderSJF
	// OrderEDF orders by ascending deadline.
	OrderEDF = sim.OrderEDF
	// OrderPrioSJF orders by descending class priority, then SJF within a
	// tier (ServerConfig.ClassPriority supplies the tiers).
	OrderPrioSJF = sim.OrderPrioSJF
	// OrderPrioEDF orders by descending class priority, then EDF.
	OrderPrioEDF = sim.OrderPrioEDF
)

// Policies returns every registered policy, sorted by kind then canonical
// name. Filter by the Kind field (PolicyScheduler, PolicyQueueOrder,
// PolicyAdmission, PolicyDispatch) for one configuration slot.
func Policies() []PolicyInfo { return registry.All() }

// PolicyNames returns the canonical names of one registry kind, sorted.
func PolicyNames(k PolicyKind) []string { return registry.Names(k) }

// ParseQueueOrder resolves a ready-queue discipline by registry name
// ("" and "fcfs" mean arrival order). Unknown names yield a typed
// *ConfigError.
func ParseQueueOrder(name string) (QueueOrder, error) { return sim.ParseQueueOrder(name) }

// ParseSchedulerPolicy resolves a per-server scheduling policy spec by
// registry name ("" means "des"); the spec's Name is the canonical name.
// The spec's New method mints fresh policy instances; Configure applies
// the config adjustment the policy implies (baseline triggers,
// architecture idle burn). Unknown names yield a typed *ConfigError.
func ParseSchedulerPolicy(name string) (SchedulerSpec, error) { return cluster.ParsePolicy(name) }

// ParseAdmission resolves an admission policy by registry name ("" means
// "none"). Unknown names yield a typed *ConfigError.
func ParseAdmission(name string) (AdmissionPolicy, error) { return admission.ParsePolicy(name) }

// ParseDispatch resolves a cluster dispatch policy by registry name
// ("" means "round-robin"). Unknown names yield a typed *ConfigError.
func ParseDispatch(name string) (DispatchPolicy, error) { return cluster.ParseDispatch(name) }

// Policy tournament: run a contender grid over one declarative workload
// and report per-class dominance against a baseline (see RunTournament).
type (
	// TournamentConfig parameterizes a policy tournament: the workload
	// spec, the contenders, the seed set, and the liveness screen.
	TournamentConfig = experiments.TournamentConfig
	// TournamentReport is a completed tournament: per-cell results,
	// per-contender summaries, dominance verdicts, liveness screens.
	TournamentReport = experiments.Report
	// TournamentContender is one entrant: a scheduling policy plus an
	// optional ready-queue discipline ("policy@order").
	TournamentContender = experiments.Contender
	// TournamentCell is one (contender, seed) run of the grid.
	TournamentCell = experiments.Cell
	// TournamentDominance is one per-class dominance verdict of a
	// challenger against the baseline.
	TournamentDominance = experiments.Dominance
)

// RunTournament runs the full contender × seed grid over the config's
// workload spec, screens every contender for starvation at a scaled-down
// rate, and returns the report. Deterministic for a given config.
func RunTournament(cfg TournamentConfig) (*TournamentReport, error) {
	return experiments.RunTournament(cfg)
}

// ParseTournamentContender parses a contender spec "policy" or
// "policy@order", validating both names against the registry.
func ParseTournamentContender(s string) (TournamentContender, error) {
	return experiments.ParseContender(s)
}

// WriteTournamentJSON serializes a tournament report as indented JSON.
func WriteTournamentJSON(w io.Writer, r *TournamentReport) error { return r.WriteJSON(w) }

// WriteTournamentMarkdown renders a tournament report as a FINDINGS-style
// Markdown document (summary, per-class tables, dominance, liveness).
func WriteTournamentMarkdown(w io.Writer, r *TournamentReport) error { return r.WriteMarkdown(w) }

// WorkloadPriorityByClass maps class names to the integer priorities the
// spec declares (nil when every class sits at the default tier 0); assign
// it to ServerConfig.ClassPriority for the priority-aware queue orders
// and the priority admission policy.
func WorkloadPriorityByClass(s *WorkloadSpec) map[string]int { return s.PriorityByClass() }

// WorkloadClassNames returns the spec's class names in declaration order —
// the partition layout by-class dispatch uses (ClusterConfig.Classes).
func WorkloadClassNames(s *WorkloadSpec) []string { return s.ClassNames() }

// DescribeWorkload renders a human-readable summary of a workload spec
// (per-class rates, deadlines, demand bounds, quality, schedule).
func DescribeWorkload(s *WorkloadSpec) string { return s.Describe() }
