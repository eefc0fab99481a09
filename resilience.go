// Fault-tolerance facade: repair models, the retry lifecycle, hedged
// dispatch, single-server checkpoint/resume (fleet checkpoints are epoch
// snapshots, see stream.go), and the runtime invariant harness.
package dessched

import (
	"dessched/internal/cluster"
	"dessched/internal/invariants"
	"dessched/internal/sim"
)

// Fault-tolerance types.
type (
	// RetryPolicy re-dispatches jobs evacuated from outaged cores with
	// deterministic exponential backoff on the simulation clock, abandoning
	// jobs whose deadline the backoff would overrun (ServerConfig.Retry).
	RetryPolicy = sim.RetryPolicy

	// RepairModel closes open-ended faults with seeded exponential repair
	// times — the MTTR model turning permanent failures into transient ones.
	RepairModel = sim.RepairModel

	// JobPhase is a job's position in the fault-tolerant lifecycle
	// (pending → dispatched → evacuated → retrying → departed).
	JobPhase = sim.Phase

	// SimSnapshot is a resumable image of a running simulation, taken by
	// WithCheckpoint and consumed by ResumeSimulation. The serialized form
	// is the versioned dessched-checkpoint/v1 JSON.
	SimSnapshot = sim.Snapshot

	// HedgeConfig duplicates near-deadline jobs to a second server with
	// first-completion-wins resolution (ClusterConfig.Hedge).
	HedgeConfig = cluster.HedgeConfig

	// InvariantConfig tunes the runtime invariant checker.
	InvariantConfig = invariants.Config
	// InvariantChecker verifies engine invariants (monotone clock, budget
	// conservation, schedule feasibility, optional no-starvation) during a
	// run; see AttachInvariants.
	InvariantChecker = invariants.Checker
	// InvariantViolation is one detected invariant breach.
	InvariantViolation = invariants.Violation
	// InvariantError aggregates a run's violations into one typed error.
	InvariantError = invariants.Error
	// InvariantKind classifies a violated invariant.
	InvariantKind = invariants.Kind
)

// Forever marks a fault with no scheduled repair (Fault.End); pair with a
// RepairModel to close such faults with sampled repair times.
var Forever = sim.Forever

// Job lifecycle phases (JobState.Phase).
const (
	PhasePending    = sim.PhasePending
	PhaseDispatched = sim.PhaseDispatched
	PhaseEvacuated  = sim.PhaseEvacuated
	PhaseRetrying   = sim.PhaseRetrying
	PhaseDeparted   = sim.PhaseDeparted
)

// Invariant kinds.
const (
	InvariantMonotoneClock       = invariants.MonotoneClock
	InvariantBudgetConservation  = invariants.BudgetConservation
	InvariantScheduleFeasibility = invariants.ScheduleFeasibility
	InvariantStarvation          = invariants.Starvation
)

// Fault-tolerance event kinds (delivered to ServerConfig.Observer).
const (
	EvRetry   = sim.EvRetry
	EvAbandon = sim.EvAbandon
)

// EncodeSimSnapshot serializes a simulation snapshot as versioned JSON;
// the encoding round-trips float64 exactly, so a decoded snapshot resumes
// bit-identically.
func EncodeSimSnapshot(s *SimSnapshot) ([]byte, error) { return sim.EncodeSnapshot(s) }

// DecodeSimSnapshot parses and validates a simulation snapshot. Malformed
// input yields a typed *ConfigError, never a panic.
func DecodeSimSnapshot(b []byte) (*SimSnapshot, error) { return sim.DecodeSnapshot(b) }

// WithCheckpoint snapshots the run every `every` simulated seconds,
// counted from the first release (from the snapshot's instant on
// ResumeSimulation), for as long as jobs remain, and hands each snapshot to
// sink. A sink error aborts the run with it; a non-positive or non-finite
// period or a nil sink is a typed error. Snapshots never perturb the run:
// the result is bit-identical to the same call without the option.
func WithCheckpoint(every float64, sink func(*SimSnapshot) error) SimOption {
	return func(s *simSetup) error {
		s.drive = func(st *sim.Stream) error { return st.Checkpoint(every, sink) }
		return nil
	}
}

// ResumeSimulation continues a checkpointed run under the same
// configuration and policy, reproducing the uninterrupted run bit for bit;
// options apply to the rest of the run as they do in Simulate. Snapshots
// written before sessions were the engine's only driver resume too.
// Mismatched physics, policy, or workload are rejected with a typed error.
func ResumeSimulation(cfg ServerConfig, p Policy, snap *SimSnapshot, opts ...SimOption) (Result, error) {
	return simulate(cfg, opts, func(run ServerConfig) (*sim.Stream, error) { return sim.RestoreStream(run, p, snap) })
}

// AttachInvariants wires a runtime invariant checker into a simulation
// config, composing with any observer and recorder already installed. Call
// the checker's Finish after Simulate returns to collect violations:
//
//	chk := dessched.AttachInvariants(&cfg, dessched.InvariantConfig{})
//	res, err := dessched.Simulate(cfg, jobs, policy)
//	if err == nil { err = chk.Finish() }
func AttachInvariants(cfg *ServerConfig, c InvariantConfig) *InvariantChecker {
	return invariants.Attach(cfg, c)
}
