package cluster

import (
	"encoding/json"
	"sort"

	"dessched/internal/cfgerr"
	"dessched/internal/hashing"
	"dessched/internal/sim"
)

// StreamSnapshotKind discriminates a cluster snapshot inside the shared
// dessched-checkpoint/v1 envelope.
const StreamSnapshotKind = "cluster-stream"

// StreamCheckpointConfig enables epoch-boundary checkpointing: after every
// Every completed dispatch epochs the Sink receives a StreamSnapshot of
// the whole fleet's in-flight state. ResumeStream continues from a
// snapshot by replaying the already-consumed arrival prefix through the
// (cheap, engine-free) ingest stage to rebuild the coordinator, then
// restoring every server engine.
type StreamCheckpointConfig struct {
	// Every is the checkpoint cadence in dispatch epochs (required > 0).
	Every int

	// Sink receives each snapshot. An error aborts the run (the crash
	// model) and is returned from the run.
	Sink func(*StreamSnapshot) error
}

// Validate reports configuration errors as typed *cfgerr.Error values.
func (c *StreamCheckpointConfig) Validate() error {
	if c.Every <= 0 {
		return cfgerr.New("cluster", "stream_checkpoint", "cluster: stream checkpoint cadence must be positive epochs, got %d", c.Every)
	}
	if c.Sink == nil {
		return cfgerr.New("cluster", "stream_checkpoint", "cluster: stream checkpoint needs a sink")
	}
	return nil
}

// StreamSnapshot is a resumable image of a cluster run at a dispatch-epoch
// boundary. The coordinator's routing, hedging, and budget state are
// deterministic recomputations from the arrival prefix, so they are not
// stored: the config fingerprint pins the configuration, and (JobsFed,
// JobsHash) pin the prefix — ResumeStream replays it from the source and
// verifies both. Only the per-server engine states and the
// already-departed hedge replica outcomes are carried.
type StreamSnapshot struct {
	Version     string `json:"version"`
	Kind        string `json:"kind"`
	Fingerprint uint64 `json:"fingerprint"` // FingerprintConfig (no workload)
	Servers     int    `json:"servers"`
	Epoch       int    `json:"epoch"`     // completed dispatch epochs
	JobsFed     int    `json:"jobs_fed"`  // arrivals consumed from the source
	JobsHash    uint64 `json:"jobs_hash"` // rolling FNV over the consumed arrivals

	// Captured holds, per server, the hedged replica outcomes that already
	// departed (sorted by job ID); replicas still in flight are re-captured
	// after resume. Only Quality, DepartAt, and Reason are meaningful.
	Captured [][]sim.JobOutcome `json:"captured,omitempty"`

	// PerServer is each server engine's streamed sim snapshot.
	PerServer []*sim.Snapshot `json:"per_server"`
}

// EncodeStreamSnapshot serializes a cluster snapshot. JSON round-trips
// float64 exactly, so a decoded snapshot resumes bit-identically.
func EncodeStreamSnapshot(s *StreamSnapshot) ([]byte, error) {
	if s == nil {
		return nil, cfgerr.New("cluster", "snapshot", "cluster: nil snapshot")
	}
	b, err := json.Marshal(s)
	if err != nil {
		return nil, cfgerr.New("cluster", "snapshot", "cluster: encode snapshot: %v", err)
	}
	return b, nil
}

// DecodeStreamSnapshot parses and structurally validates a cluster
// snapshot. Malformed input yields a typed *cfgerr.Error, never a panic.
func DecodeStreamSnapshot(b []byte) (*StreamSnapshot, error) {
	var s StreamSnapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, cfgerr.New("cluster", "snapshot", "cluster: decode snapshot: %v", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

func (s *StreamSnapshot) validate() error {
	if s.Version != sim.SnapshotVersion {
		return cfgerr.New("cluster", "snapshot", "cluster: snapshot version %q, want %q", s.Version, sim.SnapshotVersion)
	}
	if s.Kind != StreamSnapshotKind {
		return cfgerr.New("cluster", "snapshot", "cluster: snapshot kind %q, want %q", s.Kind, StreamSnapshotKind)
	}
	if s.Servers <= 0 {
		return cfgerr.New("cluster", "snapshot", "cluster: snapshot has %d servers", s.Servers)
	}
	if s.Epoch < 0 || s.Epoch > MaxEpochs {
		return cfgerr.New("cluster", "snapshot", "cluster: snapshot at epoch %d, outside [0, %d]", s.Epoch, MaxEpochs)
	}
	if len(s.PerServer) != s.Servers {
		return cfgerr.New("cluster", "snapshot", "cluster: snapshot holds %d engine states for %d servers", len(s.PerServer), s.Servers)
	}
	for i, ps := range s.PerServer {
		if ps == nil {
			return cfgerr.New("cluster", "snapshot", "cluster: snapshot engine state for server %d is missing", i)
		}
	}
	if len(s.Captured) != 0 && len(s.Captured) != s.Servers {
		return cfgerr.New("cluster", "snapshot", "cluster: snapshot holds captured outcomes for %d servers, want 0 or %d", len(s.Captured), s.Servers)
	}
	return nil
}

// checkRestored cross-checks server s's engine state against the replayed
// arrival prefix: the engine must have been fed exactly the jobs the
// coordinator routed to it, none with a deadline past the prefix's.
func (c *coordinator) checkRestored(s int, ps *sim.Snapshot) error {
	if ps.Stream == nil || ps.Stream.Fed != c.jobs[s] {
		return cfgerr.New("cluster", "snapshot", "cluster: server %d's engine state does not match the %d jobs the checkpointed prefix routed to it", s, c.jobs[s])
	}
	for _, j := range ps.Jobs {
		if !(j.Deadline <= c.horizon) {
			return cfgerr.New("cluster", "snapshot", "cluster: server %d's engine holds job %d with deadline %g past the checkpointed arrivals' horizon %g", s, j.ID, j.Deadline, c.horizon)
		}
	}
	return nil
}

// snapshot captures the run at a completed-epoch boundary.
func (c *coordinator) snapshot(streams []*sim.Stream, epoch int) (*StreamSnapshot, error) {
	per := make([]*sim.Snapshot, len(streams))
	for s, st := range streams {
		snap, err := st.Snapshot()
		if err != nil {
			return nil, err
		}
		per[s] = snap
	}
	var captured [][]sim.JobOutcome
	if c.hedging {
		captured = make([][]sim.JobOutcome, len(streams))
		for s := range c.captured {
			if len(c.captured[s]) == 0 {
				continue
			}
			outs := make([]sim.JobOutcome, 0, len(c.captured[s]))
			for _, o := range c.captured[s] {
				outs = append(outs, o)
			}
			sort.Slice(outs, func(a, b int) bool { return outs[a].ID < outs[b].ID })
			captured[s] = outs
		}
	}
	return &StreamSnapshot{
		Version:     sim.SnapshotVersion,
		Kind:        StreamSnapshotKind,
		Fingerprint: FingerprintConfig(c.cfg),
		Servers:     c.cfg.Servers,
		Epoch:       epoch,
		JobsFed:     c.fed,
		JobsHash:    c.hash.Sum(),
		Captured:    captured,
		PerServer:   per,
	}, nil
}

// FingerprintConfig is the configuration fingerprint fleet snapshots carry
// and ResumeStream checks: sim.FingerprintConfig of the server template
// under the canonical policy name, folded with every cluster-level field
// that affects outcomes, defaults filled in. The workload cannot be hashed
// up front (it is pulled lazily), so snapshots verify the arrival prefix
// separately with a rolling hash (StreamSnapshot.JobsHash); run ledgers
// hash the spec or trace bytes.
func FingerprintConfig(cfg Config) uint64 {
	cfg = cfg.withDefaults()
	spec, _ := cfg.PolicySpec()
	f := hashing.New()
	f.U64(sim.FingerprintConfig(&cfg.Server, spec.Name))
	f.Int(cfg.Servers)
	f.Int(int(cfg.Dispatch))
	f.Int(len(cfg.Classes))
	for _, n := range cfg.Classes {
		f.Str(n)
	}
	f.F64(cfg.GlobalBudget)
	f.F64(cfg.Epoch)
	f.F64(cfg.Headroom)
	f.Int(len(cfg.Faults))
	for _, fs := range cfg.Faults {
		f.Int(len(fs))
		for _, ft := range fs {
			f.Int(ft.Core)
			f.F64(ft.Start)
			f.F64(ft.End)
			f.F64(ft.SpeedFactor)
		}
	}
	f.F64(cfg.Hedge.Window)
	f.Int(cfg.Hedge.Limit)
	return f.Sum()
}
