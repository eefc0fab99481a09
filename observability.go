package dessched

import (
	"io"

	"dessched/internal/cfgerr"
	"dessched/internal/telemetry/flightrec"
	"dessched/internal/telemetry/ledger"
	"dessched/internal/telemetry/span"
)

// Always-on observability: the sampling span tracer, the flight
// recorder, and the run ledger, exported through the facade. These are
// the pieces cheap enough to leave armed on every run — including the
// streamed 1,024-server pipeline, where full traces are rejected but
// sampled spans and flight rings stay in fixed memory.
type (
	// SpanSampleConfig selects which spans a sampling tracer keeps:
	// a seed, a default keep rate, and per-name rate overrides.
	SpanSampleConfig = span.SampleConfig

	// FlightConfig arms a flight recorder (ring depth, shed-burst
	// trigger, dump budget, cooldown). The zero value takes every
	// default.
	FlightConfig = flightrec.Config
	// FlightRecorder is a bounded ring of recent simulation events that
	// dumps on fault edges, shed bursts, invariant violations, or
	// explicit Trip calls. See NewFlightRecorder and
	// ClusterInstrument.Flight.
	FlightRecorder = flightrec.Recorder
	// FlightDump is one tripped flight-recorder snapshot.
	FlightDump = flightrec.Dump
	// FlightRecord is one event in a flight-recorder ring or dump.
	FlightRecord = flightrec.Record
	// FlightBundle is a decoded dessched-flight/v1 file.
	FlightBundle = flightrec.Bundle

	// LedgerEntry is one run-provenance manifest line in the
	// dessched-run/v1 layout: config fingerprint, workload hash, seeds,
	// policies, headline metrics, invariant outcomes, peak RSS.
	LedgerEntry = ledger.Entry
	// LedgerClassMetric is one SLO class's slice of a ledger entry.
	LedgerClassMetric = ledger.ClassMetric
)

// DefaultLedgerPath is where runs append their provenance manifests
// unless told otherwise.
const DefaultLedgerPath = ledger.DefaultPath

// NewSamplingSpanTracer returns a deterministic sampling tracer: the
// n-th span of each name is kept iff a hash of (seed, name, n) lands
// under the name's rate, so the sampled trace is bit-identical run to
// run and across cluster Workers counts. Unlike a full tracer it is
// accepted by SimulateClusterStream, where retained spans stay bounded
// by rate and the span limit rather than growing with the run.
func NewSamplingSpanTracer(cfg SpanSampleConfig) *SpanTracer { return span.NewSampling(cfg) }

// NewFlightRecorder returns a flight recorder armed with cfg (zero
// config = all defaults: 256-event rings, fault-edge and 32-sheds/1s
// triggers, 16 dumps, 5 s cooldown). Attach it via
// ClusterInstrument.Flight, WithFlight, or an InvariantChecker's
// OnViolation hook; write captured dumps with WriteFlightJSON.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder { return flightrec.New(cfg) }

// WithFlight arms a flight recorder on a single-server run: every
// simulation event passes through the recorder's ring, and fault edges
// or shed bursts trip bounded dumps. Composes with the other options;
// a nil recorder is rejected.
func WithFlight(rec *FlightRecorder) SimOption {
	return func(s *simSetup) error {
		if rec == nil {
			return cfgerr.New("facade", "flight", "dessched: WithFlight needs a non-nil recorder")
		}
		s.observers = append(s.observers, rec.Observe)
		return nil
	}
}

// WriteFlightJSON serializes a recorder's captured dumps in the stable
// dessched-flight/v1 format (destrace reads it back).
func WriteFlightJSON(w io.Writer, rec *FlightRecorder) error { return flightrec.WriteJSON(w, rec) }

// ReadFlightJSON parses a dessched-flight/v1 bundle.
func ReadFlightJSON(r io.Reader) (*FlightBundle, error) { return flightrec.ReadJSON(r) }

// AppendLedger stamps and appends one provenance manifest line to the
// ledger file at path (DefaultLedgerPath by convention), creating the
// file and directory as needed. Query with `desim ledger`.
func AppendLedger(path string, e LedgerEntry) error { return ledger.Append(path, e) }

// ReadLedger loads every entry of a ledger file, oldest first.
func ReadLedger(path string) ([]LedgerEntry, error) { return ledger.Read(path) }

// DiffLedger reports the fields on which two ledger entries disagree
// ("field: a → b" lines); empty means the entries describe the same run
// shape and outcome.
func DiffLedger(a, b LedgerEntry) []string { return ledger.Diff(a, b) }

// LedgerHashBytes fingerprints raw workload input bytes (a spec or
// trace file) for LedgerEntry.WorkloadHash.
func LedgerHashBytes(b []byte) string { return ledger.HashBytes(b) }

// ServerLedgerEntry stamps a single-server run for the ledger: cfg is
// the exact config the run used (faults applied) and policy the canonical
// scheduler name. The entry carries the fingerprint the run's snapshots
// carry, the run shape, and the outcome and class fields; the caller adds
// Cmd, Seed, Workload, WorkloadHash, DurationS, Note and FlightDumps.
func ServerLedgerEntry(cfg *ServerConfig, policy string, res Result) LedgerEntry {
	return ledger.ServerEntry(cfg, policy, res)
}

// ClusterLedgerEntry stamps a fleet run for the ledger, fingerprinted as
// its snapshots are; the caller adds what ServerLedgerEntry's does.
func ClusterLedgerEntry(cfg ClusterConfig, res ClusterResult) LedgerEntry {
	return ledger.FleetEntry(cfg, res)
}

// SweepLedgerEntry stamps a sweep for the ledger: the grid's policies,
// seeds and shape, and the best cell's headline numbers in the note.
func SweepLedgerEntry(rep SweepReport) LedgerEntry { return ledger.SweepEntry(rep) }
