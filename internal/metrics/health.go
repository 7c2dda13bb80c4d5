package metrics

import (
	"flag"
	"fmt"
	"io"
)

// Family names shared between the instrumentation sites (internal/core,
// internal/mpi, internal/storage, internal/failure) and the health engine.
// Only the families the health engine reads are named here; purely
// diagnostic families use literals at their single registration site.
const (
	// MCPUMain is main-thread CPU seconds per rank.
	MCPUMain = "ftmr_cpu_main_seconds"
	// MCPUCopier is copier-thread CPU seconds per rank.
	MCPUCopier = "ftmr_cpu_copier_seconds"
	// MIOWait is main-thread I/O wait seconds per rank.
	MIOWait = "ftmr_io_wait_seconds"
	// MCopierIO is copier-thread I/O seconds per rank.
	MCopierIO = "ftmr_copier_io_seconds"
	// MNetWait is main-thread network wait seconds per rank.
	MNetWait = "ftmr_net_wait_seconds"
	// MCkptWriteWait is seconds the main thread stalled writing checkpoint
	// frames (including repair retries).
	MCkptWriteWait = "ftmr_ckpt_write_wait_seconds"
	// MCkptDrainWait is seconds spent in end-of-phase checkpoint drain
	// barriers waiting for the copier.
	MCkptDrainWait = "ftmr_ckpt_drain_wait_seconds"
	// MCkptQuarantines counts checkpoint streams truncated by the
	// longest-valid-prefix reader (torn or corrupt frames).
	MCkptQuarantines = "ftmr_ckpt_quarantines"
	// MRecoverySeconds is seconds spent in the recovery phase per rank.
	MRecoverySeconds = "ftmr_recovery_seconds"
	// MRecoveryInit is recovery seconds spent re-initializing the world
	// (revoke/shrink/agree + job restart), the paper's Fig 3 "init" stage.
	MRecoveryInit = "ftmr_recovery_init_seconds"
	// MRecoveryLoad is recovery seconds spent loading checkpoint frames.
	MRecoveryLoad = "ftmr_recovery_load_seconds"
	// MRecoverySkip is recovery seconds spent skipping already-processed
	// input records.
	MRecoverySkip = "ftmr_recovery_skip_seconds"
	// MRecoveryReprocess is recovery seconds spent re-executing lost work.
	MRecoveryReprocess = "ftmr_recovery_reprocess_seconds"
	// MRecoveryAttempts counts distributed-recovery episodes entered.
	MRecoveryAttempts = "ftmr_recovery_attempts"
	// MShuffleBytes is shuffle bytes received per rank.
	MShuffleBytes = "ftmr_shuffle_bytes"
	// MMissingRanks is the number of world slots with no surviving metrics
	// after the run (degraded-but-successful marker).
	MMissingRanks = "ftmr_missing_ranks"
	// MFailedRanks is the number of ranks marked failed across results.
	MFailedRanks = "ftmr_failed_ranks"
	// MJobsAborted counts jobs that ended aborted.
	MJobsAborted = "ftmr_jobs_aborted"
	// MCritPathShare is each category's share of the critical path
	// (fraction of makespan, labeled kind=<category>), exported by
	// internal/trace/critpath.
	MCritPathShare = "ftmr_critpath_share"
	// MCritPathMakespan is the critical-path makespan in virtual seconds.
	MCritPathMakespan = "ftmr_critpath_makespan_seconds"
	// MCritPathUnreliable is 1 when the analyzed trace lost events.
	MCritPathUnreliable = "ftmr_critpath_unreliable"
	// MRecoveryReads counts recovery-time checkpoint stream reads by the
	// source that satisfied them (labeled source=replica-local |
	// replica-peer | pfs), emitted by the internal/core failover chain.
	MRecoveryReads = "ftmr_recovery_reads"
	// MIntrospectStalls counts the introspection plane's stall reports: the
	// deadlock cycle its ranks were left in when the run drained. A nonzero
	// value means the run deadlocked.
	MIntrospectStalls = "ftmr_introspect_stalls"
)

// Recovery read-path sources, in failover-chain order: the source label
// values of MRecoveryReads (and the names of recovery.source trace events).
// The internal/core read path emits them; the health engine reads them.
const (
	// SourceReplicaLocal is the reading rank's own in-memory replica mirror.
	SourceReplicaLocal = "replica-local"
	// SourceReplicaPeer is frames a replica partner pushed to the reader.
	SourceReplicaPeer = "replica-peer"
	// SourcePFS is the durable copy on the parallel file system.
	SourcePFS = "pfs"
)

// Critical-path category label values the health engine reads from
// MCritPathShare (must match critpath.Category names).
const (
	critPathRecoveryInit      = "recovery-init"
	critPathRecoveryLoad      = "recovery-load"
	critPathRecoverySkip      = "recovery-skip"
	critPathRecoveryReprocess = "recovery-reprocess"
)

// SLO configures the health gate bounds. The zero value disables every
// bound; DefaultSLO returns the documented defaults. For each bound a
// negative value means report-only (never breach), zero is a strict bound,
// positive is the threshold.
type SLO struct {
	// MaxCkptOverhead bounds the checkpoint overhead fraction:
	// (ckpt write wait + drain wait + copier CPU) /
	// (main CPU + I/O wait + net wait). Copier I/O is excluded — the copier
	// architecture exists precisely so that draining overlaps main-thread
	// work (§4.1.3); only its CPU steals main-core cycles. The paper
	// reports <7% runtime overhead (§6.2, Fig 9).
	MaxCkptOverhead float64
	// MaxRecoverySeconds bounds the worst per-rank recovery-phase seconds
	// (the ReStore-style recovery budget).
	MaxRecoverySeconds float64
	// MaxShuffleSkew bounds max/mean of per-rank shuffle bytes.
	MaxShuffleSkew float64
	// MaxCopierShare bounds copier CPU / (main CPU + copier CPU), the
	// paper's Fig 7 interleaving ratio.
	MaxCopierShare float64
	// MaxQuarantines bounds checkpoint quarantine count.
	MaxQuarantines float64
	// MaxMissingRanks bounds the missing-rank count.
	MaxMissingRanks float64
	// MaxRecoveryPathShare bounds the summed share of the four recovery
	// categories on the critical path (0..1, from the critpath analyzer's
	// ftmr_critpath_share gauges). Runs without critpath data evaluate to 0
	// and always pass.
	MaxRecoveryPathShare float64
	// MaxRecoveryPFSShare bounds the fraction of recovery-time checkpoint
	// reads that fell through to the PFS (0..1, from the
	// ftmr_recovery_reads{source} counters). With peer-memory replication
	// enabled most recovery reads should come from RAM; runs without
	// recovery reads evaluate to 0 and always pass.
	MaxRecoveryPFSShare float64
	// MaxIntrospectStalls bounds the number of stall reports from the
	// introspection plane (ftmr_introspect_stalls): a run whose ranks were
	// left in a deadlock cycle fails; the default is strict (zero
	// tolerance). Runs without the introspection plane evaluate to 0 and
	// always pass.
	MaxIntrospectStalls float64
}

// DefaultSLO returns the default gate: checkpoint overhead <= 7% (the
// paper's headline claim), recovery budget 60 virtual seconds, shuffle skew
// <= 4x mean, copier share <= 50%, and report-only (negative) bounds for
// the degradation markers so a degraded-but-successful run is visible
// without failing the gate.
func DefaultSLO() SLO {
	return SLO{
		MaxCkptOverhead:      0.07,
		MaxRecoverySeconds:   60,
		MaxShuffleSkew:       4,
		MaxCopierShare:       0.5,
		MaxQuarantines:       -1,
		MaxMissingRanks:      -1,
		MaxRecoveryPathShare: 0.9,
		MaxRecoveryPFSShare:  -1,
		MaxIntrospectStalls:  0,
	}
}

// Flags registers the gate's -slo-* flags on fs, one per bound, each writing
// its field of s and defaulting to the value the field holds now (callers
// start from DefaultSLO). It is the one table of the gate's command-line
// surface: ftmr-sim -health and ftmr-trace health both call it, so a
// snapshot is judged alike by both.
func (s *SLO) Flags(fs *flag.FlagSet) {
	for _, f := range []struct {
		name  string
		bound *float64
		help  string
	}{
		{"slo-ckpt-overhead", &s.MaxCkptOverhead, "max checkpoint overhead fraction"},
		{"slo-recovery", &s.MaxRecoverySeconds, "max worst-rank recovery seconds"},
		{"slo-shuffle-skew", &s.MaxShuffleSkew, "max shuffle-byte skew, max/mean"},
		{"slo-copier-share", &s.MaxCopierShare, "max copier CPU share"},
		{"slo-quarantines", &s.MaxQuarantines, "max checkpoint quarantines"},
		{"slo-missing-ranks", &s.MaxMissingRanks, "max missing ranks"},
		{"slo-critpath-recovery", &s.MaxRecoveryPathShare, "max recovery share of the critical path, 0..1"},
		{"slo-recovery-pfs-share", &s.MaxRecoveryPFSShare, "max share of recovery reads served by the PFS instead of replicas, 0..1"},
		{"slo-introspect-stalls", &s.MaxIntrospectStalls, "max introspection stall reports"},
	} {
		fs.Float64Var(f.bound, f.name, *f.bound, f.help+" (negative: report-only)")
	}
}

// Indicator is one derived health quantity with its bound and verdict.
type Indicator struct {
	// Name identifies the indicator (e.g. "ckpt_overhead_fraction").
	Name string
	// Value is the computed quantity.
	Value float64
	// Bound is the configured SLO threshold; negative means report-only.
	Bound float64
	// Breached reports whether Value exceeds a non-negative Bound.
	Breached bool
	// Detail is a human-oriented explanation of the computation.
	Detail string
}

// Health is the result of evaluating a snapshot against an SLO.
type Health struct {
	// Indicators holds every computed indicator in a fixed order.
	Indicators []Indicator
	// Degraded reports whether any degradation marker (missing ranks,
	// quarantines) is nonzero, independent of whether it breached.
	Degraded bool
}

// Breached reports whether any indicator exceeded its bound.
func (h Health) Breached() bool {
	for _, in := range h.Indicators {
		if in.Breached {
			return true
		}
	}
	return false
}

// indicator builds one bounded indicator.
func indicator(name string, value, bound float64, detail string) Indicator {
	return Indicator{Name: name, Value: value, Bound: bound,
		Breached: bound >= 0 && value > bound, Detail: detail}
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Evaluate computes the paper's derived indicators from a snapshot and
// checks them against the SLO: checkpoint overhead fraction (Fig 9),
// worst-rank recovery budget plus the Fig 3 stage breakdown, copier/main
// CPU share (Fig 7), shuffle-byte skew, and the degradation markers
// (missing ranks, checkpoint quarantines).
func Evaluate(snap Snapshot, slo SLO) Health {
	busy := snap.Total(MCPUMain) + snap.Total(MIOWait) + snap.Total(MNetWait)
	ckpt := snap.Total(MCkptWriteWait) + snap.Total(MCkptDrainWait) + snap.Total(MCPUCopier)
	overhead := ratio(ckpt, busy)

	worstRec, recTotal := 0.0, snap.Total(MRecoverySeconds)
	if f := snap.Family(MRecoverySeconds); f != nil {
		for i := range f.Series {
			if v := f.Series[i].Value; v > worstRec {
				worstRec = v
			}
		}
	}
	stages := [4]float64{
		snap.Total(MRecoveryInit), snap.Total(MRecoveryLoad),
		snap.Total(MRecoverySkip), snap.Total(MRecoveryReprocess),
	}
	stageSum := stages[0] + stages[1] + stages[2] + stages[3]

	skew, maxShuf, meanShuf := 0.0, 0.0, 0.0
	if f := snap.Family(MShuffleBytes); f != nil && len(f.Series) > 0 {
		var sum float64
		for i := range f.Series {
			v := f.Series[i].Value
			sum += v
			if v > maxShuf {
				maxShuf = v
			}
		}
		meanShuf = sum / float64(len(f.Series))
		skew = ratio(maxShuf, meanShuf)
	}

	copierShare := ratio(snap.Total(MCPUCopier), snap.Total(MCPUMain)+snap.Total(MCPUCopier))
	missing := snap.Total(MMissingRanks)
	quarantines := snap.Total(MCkptQuarantines)

	series := func(name, label string) float64 {
		v, _ := snap.Series(name, label)
		return v
	}
	recPath := series(MCritPathShare, critPathRecoveryInit) +
		series(MCritPathShare, critPathRecoveryLoad) +
		series(MCritPathShare, critPathRecoverySkip) +
		series(MCritPathShare, critPathRecoveryReprocess)

	recLocal := series(MRecoveryReads, SourceReplicaLocal)
	recPeer := series(MRecoveryReads, SourceReplicaPeer)
	recPFS := series(MRecoveryReads, SourcePFS)
	pfsShare := ratio(recPFS, recLocal+recPeer+recPFS)
	stalls := snap.Total(MIntrospectStalls)

	h := Health{Indicators: []Indicator{
		indicator("ckpt_overhead_fraction", overhead, slo.MaxCkptOverhead,
			fmt.Sprintf("ckpt %.3fs of %.3fs busy (write+drain+copier CPU; %.3fs copier I/O overlapped)",
				ckpt, busy, snap.Total(MCopierIO))),
		indicator("recovery_seconds_worst_rank", worstRec, slo.MaxRecoverySeconds,
			fmt.Sprintf("%.3fs total across ranks; stages init/load/skip/reprocess = %.3f/%.3f/%.3f/%.3f s (sum %.3f)",
				recTotal, stages[0], stages[1], stages[2], stages[3], stageSum)),
		indicator("copier_cpu_share", copierShare, slo.MaxCopierShare,
			fmt.Sprintf("copier %.3fs vs main %.3fs CPU", snap.Total(MCPUCopier), snap.Total(MCPUMain))),
		indicator("shuffle_byte_skew", skew, slo.MaxShuffleSkew,
			fmt.Sprintf("max %.0fB vs mean %.0fB per rank", maxShuf, meanShuf)),
		indicator("missing_ranks", missing, slo.MaxMissingRanks,
			"world slots with no surviving per-rank metrics"),
		indicator("ckpt_quarantines", quarantines, slo.MaxQuarantines,
			"checkpoint streams truncated by the CRC reader"),
		indicator("recovery_critpath_share", recPath, slo.MaxRecoveryPathShare,
			fmt.Sprintf("recovery categories on the critical path (makespan %.3fs; unreliable=%g)",
				series(MCritPathMakespan, "makespan"), series(MCritPathUnreliable, "unreliable"))),
		indicator("recovery_read_pfs_share", pfsShare, slo.MaxRecoveryPFSShare,
			fmt.Sprintf("recovery reads by source: replica-local %g, replica-peer %g, pfs %g",
				recLocal, recPeer, recPFS)),
		indicator("introspect_stalls", stalls, slo.MaxIntrospectStalls,
			"deadlock cycles the introspection plane found at the drain"),
	}}
	h.Degraded = missing > 0 || quarantines > 0 || snap.Total(MFailedRanks) > 0 ||
		series(MCritPathUnreliable, "unreliable") > 0 ||
		stalls > 0
	return h
}

// Render writes a human-readable health report: one line per indicator
// (value, bound, verdict) plus the overall gate verdict and degradation
// marker.
func (h Health) Render(w io.Writer) {
	for _, in := range h.Indicators {
		verdict := "ok"
		switch {
		case in.Breached:
			verdict = "BREACH"
		case in.Bound < 0:
			verdict = "report-only"
		}
		fmt.Fprintf(w, "%-28s %12.6g  bound %-10s %-11s %s\n",
			in.Name, in.Value, formatBound(in.Bound), verdict, in.Detail)
	}
	state := "healthy"
	if h.Degraded {
		state = "DEGRADED (ran through faults; see markers above)"
	}
	gate := "pass"
	if h.Breached() {
		gate = "FAIL"
	}
	fmt.Fprintf(w, "health: %s, gate: %s\n", state, gate)
}

// formatBound renders an SLO bound, showing report-only for negatives.
func formatBound(b float64) string {
	if b < 0 {
		return "-"
	}
	return formatValue(b)
}
