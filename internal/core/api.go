// Package core implements FT-MRMPI, the paper's primary contribution: a
// fault-tolerant MapReduce framework on MPI for HPC clusters.
//
// The package provides the task-runner interfaces of paper Table 1
// (FileRecordReader, FileRecordWriter, KVWriter, KMVReader, Mapper,
// Reducer), distributed masters with hash-based task assignment and
// gossiped task-status tables (§3.3), fine-grained progress tracking with
// per-record commits (§3.2, Algorithm 1), record- or chunk-granularity
// asynchronous checkpointing with a background copier thread (§4.1),
// checkpoint prefetching for recovery (§5.1), an online regression-based
// load balancer (§3.4), and the two fault-tolerance models:
//
//   - Checkpoint/restart (§4.1), built only on MPI-3 error-handler
//     semantics plus Abort: the failed job terminates, and a resubmitted
//     job resumes from the durable checkpoints.
//   - Detect/resume (§4.2), built on ULFM (Revoke/Shrink/Agree): failures
//     are masked in place, the job continues on the surviving ranks with
//     the failed processes' work redistributed, either work-conserving
//     (recovering from the failed ranks' checkpoints) or
//     non-work-conserving (re-executing their tasks).
package core

import (
	"fmt"
	"time"

	"ftmrmpi/internal/vtime"
)

// Model selects the fault-tolerance model for a job.
type Model int

const (
	// ModelNone runs with no fault tolerance: any failure aborts the job
	// (MPI_ERRORS_ARE_FATAL), and nothing can be recovered. This is the
	// MR-MPI-equivalent configuration.
	ModelNone Model = iota
	// ModelCheckpointRestart checkpoints during execution; a failure aborts
	// the job and a restarted job (Spec.Resume=true) continues from the
	// checkpoints.
	ModelCheckpointRestart
	// ModelDetectResumeWC masks failures with ULFM and recovers the failed
	// ranks' work from their checkpoints (work-conserving).
	ModelDetectResumeWC
	// ModelDetectResumeNWC masks failures with ULFM and re-executes the
	// failed ranks' tasks (non-work-conserving, no checkpointing).
	ModelDetectResumeNWC
)

// String names the model the way the paper's figures label it.
func (m Model) String() string {
	switch m {
	case ModelNone:
		return "mr-mpi"
	case ModelCheckpointRestart:
		return "checkpoint/restart"
	case ModelDetectResumeWC:
		return "detect/resume(WC)"
	case ModelDetectResumeNWC:
		return "detect/resume(NWC)"
	}
	return "unknown"
}

// Checkpointing reports whether the model writes checkpoints.
func (m Model) Checkpointing() bool {
	return m == ModelCheckpointRestart || m == ModelDetectResumeWC
}

// DetectResume reports whether the model masks failures in place (ULFM
// revoke/shrink/recover) instead of aborting the job.
func (m Model) DetectResume() bool { return m == ModelDetectResumeWC || m == ModelDetectResumeNWC }

// FTModel selects the execution model along the replication axis — an axis
// orthogonal to Model (how failures are detected and masked): FTModelCR
// runs every rank as a primary and relies on checkpoints alone, while the
// replicate/partial modes dedicate part of the world to shadow ranks that
// mirror a primary's task stream and take over on failure with no replay
// and no PFS read (FTHP-MPI / PartRePer-MPI style).
type FTModel int

const (
	// FTModelCR is the checkpoint-only execution model: all ranks are
	// primaries. It is the zero value, and it reaches no replication path:
	// no shadow rank, mirrored route, sync record or ftmr_ftmodel_* series.
	FTModelCR FTModel = iota
	// FTModelReplicate gives every primary slot a shadow rank: the world is
	// split in half, shadows mirror their primary's map/convert/reduce
	// stream and receive copies of its shuffle blocks in the one exchange,
	// and a primary failure promotes the shadow in place.
	FTModelReplicate
	// FTModelPartial replicates only Spec.ReplicaFraction of the primary
	// slots (PartRePer-style): failures of replicated slots fail over to
	// their shadows; the rest fall back to the checkpoint path.
	FTModelPartial
)

// String names the replication model for flags and result summaries.
func (m FTModel) String() string {
	switch m {
	case FTModelReplicate:
		return "replicate"
	case FTModelPartial:
		return "partial"
	}
	return "cr"
}

// Replicating reports whether the model dedicates shadow ranks.
func (m FTModel) Replicating() bool { return m == FTModelReplicate || m == FTModelPartial }

// ParseFTModel parses the -ft-model flag value.
func ParseFTModel(s string) (FTModel, error) {
	switch s {
	case "", "cr":
		return FTModelCR, nil
	case "replicate":
		return FTModelReplicate, nil
	case "partial":
		return FTModelPartial, nil
	}
	return 0, fmt.Errorf("unknown ft-model %q (cr|replicate|partial)", s)
}

// Granularity selects how much work one checkpoint covers (§4.1.2).
type Granularity int

const (
	// GranRecord checkpoints every Spec.CkptInterval records; on recovery,
	// committed records are restored and skipped (cheap re-read).
	GranRecord Granularity = iota
	// GranChunk checkpoints only completed input chunks; partially
	// processed chunks are fully reprocessed on recovery.
	GranChunk
)

// String names the checkpoint granularity for flags and summaries.
func (g Granularity) String() string {
	if g == GranChunk {
		return "chunk"
	}
	return "record"
}

// Location selects where checkpoints are written (§4.1.3).
type Location int

const (
	// LocLocalCopier writes checkpoints to the node-local disk and drains
	// them to the PFS with a background copier thread.
	LocLocalCopier Location = iota
	// LocDirectPFS writes checkpoints directly to the shared PFS.
	LocDirectPFS
)

// String names the checkpoint location the way the paper's plots do.
func (l Location) String() string {
	if l == LocDirectPFS {
		return "gpfs-direct"
	}
	return "local+copier"
}

// ConvertAlgo selects the KV→KMV conversion algorithm (§5.2).
type ConvertAlgo int

const (
	// ConvertTwoPass is FT-MRMPI's log-structured two-pass conversion.
	ConvertTwoPass ConvertAlgo = iota
	// ConvertFourPass is the original MR-MPI four-pass conversion.
	ConvertFourPass
)

// TaskContext gives user code access to the runtime during a task: virtual
// time, CPU charging for user compute, and the rank identity.
type TaskContext struct {
	proc *vtime.Proc
	run  *runner
}

// Now returns the current virtual time.
func (t *TaskContext) Now() time.Duration { return t.proc.Now() }

// Rank returns the caller's current communicator rank.
func (t *TaskContext) Rank() int { return t.run.comm.Rank() }

// WorldRank returns the caller's world rank.
func (t *TaskContext) WorldRank() int { return t.run.comm.WorldRank(t.run.comm.Rank()) }

// AddCounter accumulates a user-defined counter, aggregated across ranks in
// the job Result (iterative drivers use counters for convergence tests).
// With metrics enabled a per-rank registry counter named
// user_<sanitized name> reads the same total.
func (t *TaskContext) AddCounter(name string, delta int64) {
	m := t.run.m
	if _, seen := m.Counters[name]; !seen {
		mirrorUserCounter(t.run.job.clus.Metrics, m, name)
	}
	m.Counters[name] += delta
}

// KVWriter receives the key-value pairs a Mapper emits (paper Table 1).
type KVWriter interface {
	// Emit adds one intermediate pair, a copy: k and v may be reused, and
	// may be views of the input chunk, as soon as it returns.
	Emit(k, v []byte)
}

// KMVReader iterates the key→multivalue groups a Reducer consumes (paper
// Table 1). The runner implements it over the converted KMV buffers.
type KMVReader interface {
	// Next returns the next group; ok=false at the end. values is valid only
	// until the next call: the runner refills one window for every group.
	Next() (key []byte, values [][]byte, ok bool)
}

// Mapper is the user-defined map function (paper Table 1). Implementations
// must be deterministic: recovery re-executes uncommitted records.
type Mapper interface {
	// Map processes one input record, emitting intermediate pairs.
	Map(ctx *TaskContext, key, value []byte, out KVWriter) error
	// Cost returns the CPU seconds one record costs. A "record" here is the
	// work the runner charges between commits; external-library compute
	// (e.g. the NCBI toolkit in MR-MPI-BLAST, §6.5) is simply a large cost.
	Cost(key, value []byte) float64
}

// Combiner performs local pre-reduction of a partition's intermediate
// pairs before the shuffle (the original MR-MPI exposes this as its
// "compress" operation): all values of one key emitted by this process are
// folded into a single value, shrinking the data the shuffle and the
// checkpoints must move. Combining must be idempotent and associative —
// recovery may re-run it over already-combined values.
type Combiner interface {
	// Combine folds one key's local values into one value. values is valid
	// only until the call returns, and neither it nor its bytes may be
	// written.
	Combine(ctx *TaskContext, key []byte, values [][]byte) ([]byte, error)
	// Cost returns the CPU seconds one group costs; values as in Combine.
	Cost(key []byte, values [][]byte) float64
}

// Reducer is the user-defined reduce function (paper Table 1).
type Reducer interface {
	// Reduce processes one key group, writing output records. values is
	// valid only until the call returns (the runner refills one window for
	// every group), and neither it nor its bytes may be written.
	Reduce(ctx *TaskContext, key []byte, values [][]byte, out RecordWriter) error
	// Cost returns the CPU seconds one group costs; values as in Reduce.
	Cost(key []byte, values [][]byte) float64
}

// FileRecordReader tokenizes an input chunk into records (paper Table 1:
// "instead of writing the file operations in the map function, users are
// expected to tell the library how the input data should be tokenized").
// The library performs the chunk I/O; Open receives the raw bytes.
type FileRecordReader interface {
	// Open starts tokenizing a chunk's raw bytes. data is valid until
	// Close: the runner reads the rank's next chunk into the same storage,
	// so neither the reader nor the mapper may keep it, or a record of it,
	// past Close (KVWriter.Emit copies what it is given).
	Open(chunk Chunk, data []byte) error
	// Next returns the next record; ok=false at the end of the chunk.
	Next() (key, value []byte, ok bool, err error)
	// Close releases per-chunk state.
	Close() error
}

// RecordWriter serializes output records (paper Table 1's
// FileRecordWriter); the library performs the actual file I/O.
type RecordWriter interface {
	// Write serializes one output record into the writer's buffer, a copy:
	// key and value may be reused as soon as it returns.
	Write(key, value []byte)
}

// Spec describes one MapReduce job.
type Spec struct {
	Name     string // job name; namespaces output and checkpoints
	JobID    string // distinct per submission chain; restarts reuse it
	NumRanks int    // world size to run the job on

	InputPrefix string // PFS prefix holding the input chunk files

	NewReader  func() FileRecordReader // per-rank input record reader factory
	NewMapper  func() Mapper           // per-rank mapper factory
	NewReducer func() Reducer          // per-rank reducer factory
	// NewCombiner, when set, enables local pre-reduction before the shuffle
	// (MR-MPI's "compress").
	NewCombiner func() Combiner

	Model       Model       // fault-tolerance execution model (§4)
	Granularity Granularity // checkpoint granularity: per record or per chunk
	// CkptInterval is the number of committed records per checkpoint frame
	// (record granularity). Zero means 100, the paper's default.
	CkptInterval int
	CkptLocation Location // where checkpoint frames are written (§4.1.3)
	// Prefetch enables the recovery prefetcher (§5.1): a checkpoint stream
	// is replayed from one bulk PFS read, charged as staged to the local disk
	// and read back from it, instead of frame by frame from the PFS.
	Prefetch bool        // replay checkpoint streams from a bulk read (§5.1)
	Convert  ConvertAlgo // KV→KMV conversion algorithm for the merge phase
	// LoadBalance enables the regression-based balancer for redistribution
	// (§3.4); when disabled, failed work is split evenly.
	LoadBalance bool
	// LBModel selects the balancer's regression model: LBStatic (default)
	// is the paper's whole-history OLS over input size; LBTrace adds the
	// tracer's observed per-rank cost features (recency-weighted task
	// timings, checkpoint stall, pending-partition debt).
	LBModel LBModelKind

	// Resume makes a checkpoint/restart job recover from the checkpoints
	// left by a previous attempt with the same JobID.
	Resume bool

	// ReplicaK enables the diskless in-memory replica tier (ReStore-style):
	// every committed checkpoint frame is also pushed over MPI into the
	// memory of ReplicaK ring-successor peers, and recovery reads fail over
	// local replica → peer replica → PFS. 0 (the default) disables the
	// tier: no replica store, no replica push and no agreement round on
	// restorability. Only meaningful for checkpointing models.
	ReplicaK int

	// FTModel selects the replication execution model (-ft-model). The zero
	// value FTModelCR keeps every rank a primary and sends no shadow
	// traffic; FTModelReplicate/FTModelPartial dedicate
	// shadow ranks that mirror primaries and fail over without replay.
	// Replication requires a detect/resume Model (the failover happens
	// inside the ULFM recovery round).
	FTModel FTModel

	// ReplicaFraction is the fraction of primary slots that get a shadow
	// under FTModelPartial (default 0.5). FTModelReplicate pins it to 1.
	ReplicaFraction float64
}

// withDefaults fills zero fields.
func (s Spec) withDefaults() Spec {
	if s.CkptInterval <= 0 {
		s.CkptInterval = 100
	}
	if s.JobID == "" {
		s.JobID = s.Name
	}
	switch s.FTModel {
	case FTModelReplicate:
		s.ReplicaFraction = 1
	case FTModelPartial:
		if s.ReplicaFraction <= 0 || s.ReplicaFraction > 1 {
			s.ReplicaFraction = 0.5
		}
	default:
		s.ReplicaFraction = 0
	}
	if s.FTModel.Replicating() {
		// The diskless replica tier and the replication execution model are
		// separate mechanisms; mixing them would give checkpointing primaries
		// replica partners that the non-checkpointing shadows lack, breaking
		// the replica exchange's collective barrier. Shadows already mirror
		// everything the replica tier would hold.
		s.ReplicaK = 0
	}
	return s
}
