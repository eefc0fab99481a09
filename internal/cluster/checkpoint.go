package cluster

import (
	"encoding/json"
	"math"
	"sort"

	"dessched/internal/cfgerr"
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
	Fingerprint uint64 `json:"fingerprint"` // fingerprintClusterConfig (no workload)
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
		Fingerprint: fingerprintClusterConfig(c.cfg),
		Servers:     c.cfg.Servers,
		Epoch:       epoch,
		JobsFed:     c.fed,
		JobsHash:    c.hash.h,
		Captured:    captured,
		PerServer:   per,
	}, nil
}

// fingerprintClusterConfig is the configuration fingerprint snapshots
// carry: the workload cannot be hashed up front (it is pulled lazily), so
// snapshots pin the config here and verify the arrival prefix separately
// with a rolling hash (StreamSnapshot.JobsHash).
func fingerprintClusterConfig(cfg Config) uint64 {
	var f fnvCluster
	f.init()
	hashClusterConfig(&f, cfg)
	return f.h
}

// hashClusterConfig folds every configuration field the dispatch, hedging,
// and budget stages depend on into the accumulator.
func hashClusterConfig(f *fnvCluster, cfg Config) {
	f.u64(uint64(cfg.Servers))
	f.u64(uint64(cfg.Dispatch))
	f.f64(cfg.GlobalBudget)
	f.f64(cfg.Epoch)
	f.f64(cfg.Headroom)
	name := "custom"
	if cfg.NewPolicy == nil {
		if spec, err := ParsePolicy(cfg.Policy); err == nil {
			name = spec.Name
		}
	}
	f.str(name)
	f.u64(uint64(cfg.Server.Cores))
	f.f64(cfg.Server.Budget)
	f.f64(cfg.Server.MaxSpeed)
	f.f64(cfg.Server.Retry.Backoff)
	f.f64(cfg.Server.Retry.Multiplier)
	f.f64(cfg.Server.Retry.MaxBackoff)
	f.f64(cfg.Server.Retry.DeadlineSlack)
	f.u64(uint64(cfg.Server.Retry.MaxAttempts))
	f.f64(cfg.Hedge.Window)
	f.u64(uint64(cfg.Hedge.Limit))
	if cfg.Server.Quality != nil {
		f.str(cfg.Server.Quality.Name())
		for _, x := range []float64{1, 10, 100, 500, 1000} {
			f.f64(cfg.Server.Quality.Eval(x))
		}
	}
	// Class-quality overrides and job classes are hashed only when present,
	// keeping fingerprints of legacy class-free runs unchanged.
	if len(cfg.Server.ClassQuality) > 0 {
		names := make([]string, 0, len(cfg.Server.ClassQuality))
		for n := range cfg.Server.ClassQuality {
			names = append(names, n)
		}
		sort.Strings(names)
		f.u64(uint64(len(names)))
		for _, n := range names {
			q := cfg.Server.ClassQuality[n]
			f.str(n)
			f.str(q.Name())
			for _, x := range []float64{1, 10, 100, 500, 1000} {
				f.f64(q.Eval(x))
			}
		}
	}
	// SLO knobs (queue order, class priorities, admission, by-class
	// partitions) are likewise folded only when set, so fingerprints of
	// runs predating the knobs stay stable.
	if cfg.Server.QueueOrder != sim.OrderFCFS {
		f.u64(uint64(cfg.Server.QueueOrder))
	}
	if len(cfg.Server.ClassPriority) > 0 {
		names := make([]string, 0, len(cfg.Server.ClassPriority))
		for n := range cfg.Server.ClassPriority {
			names = append(names, n)
		}
		sort.Strings(names)
		f.u64(uint64(len(names)))
		for _, n := range names {
			f.str(n)
			f.u64(uint64(cfg.Server.ClassPriority[n]))
		}
	}
	if cfg.Server.Admission.Enabled() {
		f.u64(uint64(cfg.Server.Admission.Policy))
		f.u64(uint64(cfg.Server.Admission.MaxQueue))
	}
	if len(cfg.Classes) > 0 {
		f.u64(uint64(len(cfg.Classes)))
		for _, n := range cfg.Classes {
			f.str(n)
		}
	}
	f.u64(uint64(len(cfg.Faults)))
	for _, fs := range cfg.Faults {
		f.u64(uint64(len(fs)))
		for _, ft := range fs {
			f.u64(uint64(ft.Core))
			f.f64(ft.Start)
			f.f64(ft.End)
			f.f64(ft.SpeedFactor)
		}
	}
}

// fnvCluster is a FNV-1a accumulator over the cluster fingerprint fields.
type fnvCluster struct{ h uint64 }

func (f *fnvCluster) init() { f.h = 14695981039346656037 }

func (f *fnvCluster) u64(v uint64) {
	for i := 0; i < 8; i++ {
		f.h ^= v & 0xff
		f.h *= 1099511628211
		v >>= 8
	}
}

func (f *fnvCluster) f64(v float64) { f.u64(math.Float64bits(v)) }

func (f *fnvCluster) b(v bool) {
	if v {
		f.u64(1)
	} else {
		f.u64(0)
	}
}

func (f *fnvCluster) str(s string) {
	f.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		f.h ^= uint64(s[i])
		f.h *= 1099511628211
	}
}

// FingerprintConfig exposes the cluster configuration fingerprint to
// provenance tooling (the run ledger): the same stable FNV-1a hash the
// checkpoint layer uses to refuse resuming under a drifted config, minus
// the workload (hash the spec or trace bytes separately).
func FingerprintConfig(cfg Config) uint64 {
	return fingerprintClusterConfig(cfg)
}
