package core

import "time"

// Phase identifies one stage of a job's lifetime for time decomposition
// (used by the paper's Figures 7, 9, and 10).
type Phase string

const (
	PhaseInit     Phase = "init"     // startup: input split and task-table build
	PhaseMap      Phase = "map"      // map tasks (read, map, emit, checkpoint)
	PhaseShuffle  Phase = "shuffle"  // all-to-all exchange of KV pairs
	PhaseConvert  Phase = "merge"    // KV→KMV conversion; the paper labels it "merge"
	PhaseReduce   Phase = "reduce"   // reduce over grouped keys and output write
	PhaseRecovery Phase = "recovery" // post-failure shrink, restore, and reprocess
)

// RecoveryBreakdown decomposes recovery time the way Figure 3 does.
type RecoveryBreakdown struct {
	Init      time.Duration // coordination: shrink/agree/table rebuild
	LoadCkpt  time.Duration // reading checkpoint data
	Skip      time.Duration // re-reading input and skipping committed records
	Reprocess time.Duration // re-executing uncommitted work
}

// Total returns the summed recovery time.
func (r RecoveryBreakdown) Total() time.Duration {
	return r.Init + r.LoadCkpt + r.Skip + r.Reprocess
}

// RankMetrics accumulates one rank's accounting for a job attempt.
type RankMetrics struct {
	WorldRank int  // launch (world) rank this row describes
	Failed    bool // this rank was killed

	CPUMain   time.Duration // main-thread compute
	CPUCopier time.Duration // copier/agent-thread compute (same core)
	IOWait    time.Duration // storage waits (main thread)
	CopierIO  time.Duration // storage waits (copier thread)
	NetWait   time.Duration // time inside communication calls

	PhaseTime map[Phase]time.Duration // wall time this rank spent per phase
	Recovery  RecoveryBreakdown       // Figure 3 recovery-time decomposition

	// Counters holds user-defined counters (TaskContext.AddCounter), plus the
	// library's ckpt_corrupt (checkpoint streams quarantined at read time).
	Counters map[string]int64

	RecordsMapped   int64 // input records run through the mapper
	RecordsSkipped  int64 // committed records skipped during recovery re-read
	RecordsRestored int64 // records restored from checkpoint frames
	GroupsReduced   int64 // key groups run through the reducer
	CkptFrames      int64 // checkpoint frames written
	CkptBytes       int64 // checkpoint bytes written
	ShuffleBytes    int64 // bytes sent during the shuffle exchange
	RecoveredFrames int64 // checkpoint frames read back during recovery
	RecoveredBytes  int64 // checkpoint bytes read back during recovery
}

func newRankMetrics(worldRank int) *RankMetrics {
	return &RankMetrics{
		WorldRank: worldRank,
		PhaseTime: make(map[Phase]time.Duration),
		Counters:  make(map[string]int64),
	}
}

// Result reports the outcome of one job attempt.
type Result struct {
	Spec    Spec          // the job specification this attempt executed
	Start   time.Duration // virtual submission time
	End     time.Duration // virtual completion/abort time
	Aborted bool          // true when the attempt died (needs restart)
	// FailedRanks lists world ranks that were lost during the attempt.
	FailedRanks []int
	// Ranks holds per-rank metrics, indexed by launch (world) rank.
	Ranks []*RankMetrics
	// OutputPaths lists the PFS paths of the reduce output partitions.
	OutputPaths []string
	// finishers counts the ranks that returned from RunJob with the job done.
	finishers int
}

// Elapsed returns the attempt's virtual duration.
func (r *Result) Elapsed() time.Duration { return r.End - r.Start }

// sumRanks adds up one duration per reporting rank (nil slots — ranks that
// died before reporting — are skipped; see MissingRanks).
func (r *Result) sumRanks(of func(*RankMetrics) time.Duration) time.Duration {
	var total time.Duration
	for _, m := range r.Ranks {
		if m != nil {
			total += of(m)
		}
	}
	return total
}

// PhaseTotal sums a phase's time across all ranks (the "aggregated time for
// all processes" of Figure 10).
func (r *Result) PhaseTotal(ph Phase) time.Duration {
	return r.sumRanks(func(m *RankMetrics) time.Duration { return m.PhaseTime[ph] })
}

// MaxPhase returns the maximum single-rank time for a phase.
func (r *Result) MaxPhase(ph Phase) time.Duration {
	var max time.Duration
	for _, m := range r.Ranks {
		if m != nil && m.PhaseTime[ph] > max {
			max = m.PhaseTime[ph]
		}
	}
	return max
}

// TotalCPUMain sums main-thread CPU time across ranks.
func (r *Result) TotalCPUMain() time.Duration {
	return r.sumRanks(func(m *RankMetrics) time.Duration { return m.CPUMain })
}

// TotalCPUCopier sums copier CPU time across ranks.
func (r *Result) TotalCPUCopier() time.Duration {
	return r.sumRanks(func(m *RankMetrics) time.Duration { return m.CPUCopier })
}

// TotalIOWait sums main-thread I/O wait across ranks.
func (r *Result) TotalIOWait() time.Duration {
	return r.sumRanks(func(m *RankMetrics) time.Duration { return m.IOWait })
}

// MissingRanks returns the launch ranks whose metrics slot is nil — ranks
// that died before reporting, or were never collected. Aggregations
// (PhaseTotal, Counter, ...) silently skip these slots; callers judging a
// run's completeness should consult this list.
func (r *Result) MissingRanks() []int {
	var out []int
	for i, m := range r.Ranks {
		if m == nil {
			out = append(out, i)
		}
	}
	return out
}

// Counter sums a user counter across ranks.
func (r *Result) Counter(name string) int64 {
	var t int64
	for _, m := range r.Ranks {
		if m != nil {
			t += m.Counters[name]
		}
	}
	return t
}

// RecoveryTotal aggregates recovery breakdowns across ranks.
func (r *Result) RecoveryTotal() RecoveryBreakdown {
	var out RecoveryBreakdown
	for _, m := range r.Ranks {
		if m == nil {
			continue
		}
		out.Init += m.Recovery.Init
		out.LoadCkpt += m.Recovery.LoadCkpt
		out.Skip += m.Recovery.Skip
		out.Reprocess += m.Recovery.Reprocess
	}
	return out
}

// ResultSummary is a JSON-friendly projection of a Result (Spec holds
// factory functions and cannot be marshaled directly).
type ResultSummary struct {
	Job         string  `json:"job"`                    // job name from the Spec
	Model       string  `json:"model"`                  // execution model the attempt ran under
	Ranks       int     `json:"ranks"`                  // launch world size
	Aborted     bool    `json:"aborted"`                // true when the attempt died before finishing
	ElapsedSec  float64 `json:"elapsed_sec"`            // virtual makespan in seconds
	FailedRanks []int   `json:"failed_ranks,omitempty"` // world ranks lost during the attempt
	// MissingRanks lists launch ranks with no metrics (see MissingRanks()).
	MissingRanks []int              `json:"missing_ranks,omitempty"`
	PhaseMaxSec  map[string]float64 `json:"phase_max_sec"`      // per-phase max single-rank seconds
	PhaseAggSec  map[string]float64 `json:"phase_agg_sec"`      // per-phase seconds summed across ranks
	Recovery     map[string]float64 `json:"recovery_sec"`       // Figure 3 recovery breakdown, seconds
	Counters     map[string]int64   `json:"counters,omitempty"` // user counters summed across ranks
	CkptBytes    int64              `json:"ckpt_bytes"`         // checkpoint bytes written, all ranks
	CkptFrames   int64              `json:"ckpt_frames"`        // checkpoint frames written, all ranks
}

// Summary builds the JSON-friendly projection.
func (r *Result) Summary() ResultSummary {
	s := ResultSummary{
		Job:          r.Spec.JobID,
		Model:        r.Spec.Model.String(),
		Ranks:        r.Spec.NumRanks,
		Aborted:      r.Aborted,
		ElapsedSec:   r.Elapsed().Seconds(),
		FailedRanks:  r.FailedRanks,
		MissingRanks: r.MissingRanks(),
		PhaseMaxSec:  make(map[string]float64),
		PhaseAggSec:  make(map[string]float64),
		Counters:     make(map[string]int64),
	}
	for _, ph := range []Phase{PhaseInit, PhaseMap, PhaseShuffle, PhaseConvert, PhaseReduce, PhaseRecovery} {
		if d := r.MaxPhase(ph); d > 0 {
			s.PhaseMaxSec[string(ph)] = d.Seconds()
			s.PhaseAggSec[string(ph)] = r.PhaseTotal(ph).Seconds()
		}
	}
	rb := r.RecoveryTotal()
	s.Recovery = map[string]float64{
		"init":      rb.Init.Seconds(),
		"load_ckpt": rb.LoadCkpt.Seconds(),
		"skip":      rb.Skip.Seconds(),
		"reprocess": rb.Reprocess.Seconds(),
	}
	for _, m := range r.Ranks {
		if m == nil {
			continue
		}
		s.CkptBytes += m.CkptBytes
		s.CkptFrames += m.CkptFrames
		for k, v := range m.Counters {
			s.Counters[k] += v
		}
	}
	return s
}
