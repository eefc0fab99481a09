// Package ledger is the run provenance layer: an append-only JSONL
// manifest (results/ledger.jsonl by default) where every simulation,
// sweep, chaos, tournament, or HTTP run can record what exactly ran —
// config fingerprint (the checkpoint FNV machinery), workload hash,
// seeds, policies, headline quality/energy/class metrics, invariant
// outcomes, peak RSS, go version. The point is to make every number in
// EXPERIMENTS.md or a paper table traceable to an exact config+seed:
// `desim ledger list|show|diff` queries the file.
//
// Entries are one JSON object per line in the stable dessched-run/v1
// layout. Append is atomic at the OS level (O_APPEND single write), so
// concurrent runs interleave whole lines, never fragments.
package ledger

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Schema identifies the ledger entry JSON layout; bump on breaking
// change.
const Schema = "dessched-run/v1"

// DefaultPath is where runs append unless told otherwise.
const DefaultPath = "results/ledger.jsonl"

// ClassMetric is one SLO class's slice of a run's headline metrics.
type ClassMetric struct {
	Class       string  `json:"class"`
	NormQuality float64 `json:"norm_quality"`
	Completed   int     `json:"completed"`
	Deadlined   int     `json:"deadlined"`
	Shed        int     `json:"shed"`
}

// Entry is one ledger line: the provenance manifest of a single run.
// Zero-valued optional fields are omitted from the JSON so legacy
// readers stay happy as fields accrete.
type Entry struct {
	// Schema is stamped by Append; readers should check it.
	Schema string `json:"schema"`
	// Time is the wall-clock append time, RFC3339 UTC. Append stamps it
	// when empty (tests pass a fixed value for determinism).
	Time string `json:"time"`
	// Cmd names the producing command: "sim", "sweep", "chaos",
	// "tournament", or "http:<route>".
	Cmd string `json:"cmd"`
	// GoVersion is runtime.Version(); Append stamps it when empty.
	GoVersion string `json:"go_version"`

	// Fingerprint is the config fingerprint as 16 hex digits — the same
	// FNV-1a hash the checkpoint layer uses (sim.FingerprintConfig /
	// cluster.FingerprintConfig).
	Fingerprint string `json:"fingerprint,omitempty"`
	// WorkloadHash fingerprints the workload input (spec or trace file
	// bytes, or the generator parameters) as 16 hex digits.
	WorkloadHash string `json:"workload_hash,omitempty"`

	Seed     uint64   `json:"seed,omitempty"`
	Seeds    []uint64 `json:"seeds,omitempty"`
	Policy   string   `json:"policy,omitempty"`
	Policies []string `json:"policies,omitempty"`
	Workload string   `json:"workload,omitempty"` // spec/trace name or path

	Servers   int     `json:"servers,omitempty"`
	Cores     int     `json:"cores,omitempty"`
	BudgetW   float64 `json:"budget_w,omitempty"`
	DurationS float64 `json:"duration_s,omitempty"`
	Jobs      int     `json:"jobs,omitempty"`

	// Headline outcome metrics.
	Quality     float64       `json:"quality,omitempty"`
	NormQuality float64       `json:"norm_quality,omitempty"`
	EnergyJ     float64       `json:"energy_j,omitempty"`
	Completed   int           `json:"completed,omitempty"`
	Deadlined   int           `json:"deadlined,omitempty"`
	Shed        int           `json:"shed,omitempty"`
	Classes     []ClassMetric `json:"classes,omitempty"`

	// InvariantsArmed records whether the runtime invariant checker ran;
	// Violations its verdict (only meaningful when armed).
	InvariantsArmed bool `json:"invariants_armed,omitempty"`
	Violations      int  `json:"violations,omitempty"`

	// FlightDumps counts flight-recorder snapshots captured, when armed.
	FlightDumps int `json:"flight_dumps,omitempty"`

	PeakRSSBytes uint64 `json:"peak_rss_bytes,omitempty"`
	// Note is free-form context ("bench baseline refresh", ticket id).
	Note string `json:"note,omitempty"`
}

// Fingerprint formats a 64-bit FNV fingerprint the way ledger entries
// store it: 16 lowercase hex digits.
func Fingerprint(h uint64) string { return fmt.Sprintf("%016x", h) }

// HashBytes fingerprints raw input bytes (a workload spec or trace file)
// FNV-1a style, formatted like Fingerprint. Hash the bytes actually
// read, so a re-run can verify its input is the same file.
func HashBytes(b []byte) string {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return Fingerprint(h)
}

// Append stamps the entry (Schema always; Time and GoVersion only when
// empty) and appends it as one JSON line to path, creating the file and
// its directory as needed. The single O_APPEND write keeps concurrent
// appenders line-atomic.
func Append(path string, e Entry) error {
	e.Schema = Schema
	if e.Time == "" {
		e.Time = time.Now().UTC().Format(time.RFC3339)
	}
	if e.GoVersion == "" {
		e.GoVersion = runtime.Version()
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("ledger: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	_, werr := f.Write(append(line, '\n'))
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("ledger: %w", werr)
	}
	if cerr != nil {
		return fmt.Errorf("ledger: %w", cerr)
	}
	return nil
}

// Read loads every entry of a ledger file oldest-first. Blank lines are
// skipped; a malformed or wrong-schema line is an error carrying its
// line number, because a provenance log that silently drops lines is
// worse than none.
func Read(path string) ([]Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	defer f.Close()
	var out []Entry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("ledger: %s:%d: %w", path, lineNo, err)
		}
		if e.Schema != Schema {
			return nil, fmt.Errorf("ledger: %s:%d: schema %q, want %q", path, lineNo, e.Schema, Schema)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ledger: %s: %w", path, err)
	}
	return out, nil
}

// Diff reports the fields on which two entries disagree, one
// "field: a → b" line each, in a fixed field order. Time and note are
// deliberately excluded — two runs of the same experiment should diff
// empty. An empty result means the entries describe the same run shape
// and outcome.
func Diff(a, b Entry) []string {
	var out []string
	add := func(field string, av, bv any) {
		if fmt.Sprint(av) != fmt.Sprint(bv) {
			out = append(out, fmt.Sprintf("%s: %v → %v", field, av, bv))
		}
	}
	add("cmd", a.Cmd, b.Cmd)
	add("go_version", a.GoVersion, b.GoVersion)
	add("fingerprint", a.Fingerprint, b.Fingerprint)
	add("workload_hash", a.WorkloadHash, b.WorkloadHash)
	add("workload", a.Workload, b.Workload)
	add("seed", a.Seed, b.Seed)
	add("seeds", a.Seeds, b.Seeds)
	add("policy", a.Policy, b.Policy)
	add("policies", a.Policies, b.Policies)
	add("servers", a.Servers, b.Servers)
	add("cores", a.Cores, b.Cores)
	add("budget_w", a.BudgetW, b.BudgetW)
	add("duration_s", a.DurationS, b.DurationS)
	add("jobs", a.Jobs, b.Jobs)
	add("quality", a.Quality, b.Quality)
	add("norm_quality", a.NormQuality, b.NormQuality)
	add("energy_j", a.EnergyJ, b.EnergyJ)
	add("completed", a.Completed, b.Completed)
	add("deadlined", a.Deadlined, b.Deadlined)
	add("shed", a.Shed, b.Shed)
	add("classes", a.Classes, b.Classes)
	add("invariants_armed", a.InvariantsArmed, b.InvariantsArmed)
	add("violations", a.Violations, b.Violations)
	add("flight_dumps", a.FlightDumps, b.FlightDumps)
	return out
}
