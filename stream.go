// Streaming facade: lazy job sources, the fleet runner over a source, and
// the fleet's epoch snapshots. Every fleet run pulls one dispatch epoch of
// arrivals at a time; SimulateCluster feeds a materialized slice, while
// SimulateClusterStream over a lazy source keeps memory bounded by the
// arrival window, not by the job count — 1,024 servers over 10M jobs run
// in well under a gigabyte (docs/SCALE.md).
package dessched

import (
	"dessched/internal/cluster"
	"dessched/internal/job"
	"dessched/internal/workload"
	"dessched/internal/workloadspec"
)

// Streaming types.
type (
	// JobSource is a lazy, release-ordered job stream: Next(until) yields
	// every remaining job released before until, Done reports exhaustion
	// exactly. NewWorkloadStream, NewWorkloadSpecStream, and
	// NewSliceJobSource construct sources; SimulateClusterStream consumes
	// them one dispatch epoch at a time.
	JobSource = job.Source

	// ClusterStreamSnapshot is a resumable image of an in-flight fleet run
	// at an epoch boundary: per-server engine snapshots plus the
	// coordinator's arrival cursor, pinned by a config fingerprint and a
	// rolling hash of the consumed arrival prefix
	// (ClusterConfig.StreamCheckpoint).
	ClusterStreamSnapshot = cluster.StreamSnapshot
	// ClusterStreamCheckpointConfig delivers a ClusterStreamSnapshot every
	// Every dispatch epochs during a fleet run
	// (ClusterConfig.StreamCheckpoint).
	ClusterStreamCheckpointConfig = cluster.StreamCheckpointConfig
)

// NewSliceJobSource adapts a materialized job slice to the JobSource
// interface (sorted copy, release order) — for trace replay and tests.
func NewSliceJobSource(jobs []Job) JobSource { return job.NewSliceSource(jobs) }

// NewWorkloadStream returns a lazy generator of the synthetic request
// stream described by cfg. It yields exactly the jobs GenerateWorkload
// produces for the same config, without materializing them: memory is
// O(arrival window), so multi-hour, multi-million-job streams are cheap.
func NewWorkloadStream(cfg WorkloadConfig) (JobSource, error) {
	s, err := workload.NewStream(cfg)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// NewWorkloadSpecStream returns a lazy generator over a declarative
// workload spec, merging the per-class streams by release time exactly as
// CompileWorkload does.
func NewWorkloadSpecStream(s *WorkloadSpec) (JobSource, error) {
	st, err := workloadspec.NewStream(s)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// SimulateClusterStream runs a whole fleet over a job source: per epoch,
// the coordinator pulls the window's arrivals, routes them, water-fills
// the global power budget, and advances every server engine before pulling
// the next window. Results are bit-identical for any ClusterConfig.Workers
// value. Over a lazy source the probes that grow with the run —
// CollectJobs and the unbounded Instrument sinks (a full Tracer, Traces) —
// are rejected with typed errors; a NewSliceJobSource holds its jobs in
// memory already and accepts them. Series, Registry, a sampling tracer
// (NewSamplingSpanTracer), and the flight recorder
// (ClusterInstrument.Flight) are always supported.
func SimulateClusterStream(cfg ClusterConfig, src JobSource) (ClusterResult, error) {
	return cluster.RunStream(cfg, src)
}

// ResumeClusterStream continues a checkpointed fleet run. src must
// regenerate the original arrival stream from the start (sources are
// deterministic per seed; a SimulateCluster run resumes from
// NewSliceJobSource over the same jobs): the consumed prefix is replayed
// through the dispatch bookkeeping — no engine work — and verified against
// the snapshot's rolling hash before the engines resume.
func ResumeClusterStream(cfg ClusterConfig, src JobSource, snap *ClusterStreamSnapshot) (ClusterResult, error) {
	return cluster.ResumeStream(cfg, src, snap)
}

// EncodeClusterStreamSnapshot serializes a fleet snapshot as
// versioned JSON; the encoding round-trips float64 exactly, so a decoded
// snapshot resumes bit-identically.
func EncodeClusterStreamSnapshot(s *ClusterStreamSnapshot) ([]byte, error) {
	return cluster.EncodeStreamSnapshot(s)
}

// DecodeClusterStreamSnapshot parses and validates a fleet snapshot.
// Malformed input yields a typed *ConfigError, never a panic.
func DecodeClusterStreamSnapshot(b []byte) (*ClusterStreamSnapshot, error) {
	return cluster.DecodeStreamSnapshot(b)
}
