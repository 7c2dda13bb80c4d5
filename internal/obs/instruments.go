package obs

import "ftmrmpi/internal/metrics"

// The per-rank instrument sets, one plain struct per layer. A nil registry
// hands out nil instruments and every instrument operation no-ops on a nil
// receiver (internal/metrics), so these need no guards of their own.

// MPIInstruments are the MPI layer's per-rank counters. The point-to-point
// counters see messages only: the rendezvous Alltoallv simulates none, so
// shuffle volume is ftmr_shuffle_bytes, not ftmr_mpi_send_bytes.
type MPIInstruments struct {
	Sends, SendBytes *metrics.Counter // point-to-point sends initiated, and their payload bytes
	Recvs, RecvBytes *metrics.Counter // point-to-point messages received, and their payload bytes
	Colls            *metrics.Counter // collective operations entered (Handle.CollEnter)
	Revokes          *metrics.Counter // ULFM Revoke calls, including re-initiations
	Shrinks, Agrees  *metrics.Counter // ULFM Shrink and Agree calls
}

func bindMPI(reg *metrics.Registry, rank int) MPIInstruments {
	return MPIInstruments{
		Sends:     reg.Counter("ftmr_mpi_sends", "Point-to-point sends initiated.", rank),
		SendBytes: reg.Counter("ftmr_mpi_send_bytes", "Point-to-point payload bytes sent.", rank),
		Recvs:     reg.Counter("ftmr_mpi_recvs", "Point-to-point messages received.", rank),
		RecvBytes: reg.Counter("ftmr_mpi_recv_bytes", "Point-to-point payload bytes received.", rank),
		Colls:     reg.Counter("ftmr_mpi_collectives", "Collective operations entered.", rank),
		Revokes:   reg.Counter("ftmr_mpi_revokes", "ULFM Revoke calls (including re-initiations).", rank),
		Shrinks:   reg.Counter("ftmr_mpi_shrinks", "ULFM Shrink calls.", rank),
		Agrees:    reg.Counter("ftmr_mpi_agrees", "ULFM Agree calls.", rank),
	}
}

// Sent counts one initiated send of n payload bytes.
func (m *MPIInstruments) Sent(n int) {
	m.Sends.Inc()
	m.SendBytes.Add(float64(n))
}

// Received counts one delivered message of n payload bytes.
func (m *MPIInstruments) Received(n int) {
	m.Recvs.Inc()
	m.RecvBytes.Add(float64(n))
}

// CoreInstruments are the job runner's per-rank series for occurrences no
// other accumulator counts. The runner's RankMetrics fields, its quarantines
// and its user counters are not here: the registry reads them from
// RankMetrics at snapshot time (core.mirrorRankMetrics).
type CoreInstruments struct {
	MapTask, ReducePart *metrics.Histogram // virtual-time latency of map task / reduce partition executions
	TaskCommits         *metrics.Counter   // commit points (Handle.TaskCommit)
	RecoveryAttempts    *metrics.Counter   // distributed-recovery episodes entered
	CkptWriteWait       *metrics.Counter   // seconds stalled appending checkpoint frames (Handle.CkptStall "write")
	CkptDrainWait       *metrics.Counter   // seconds in phase-boundary copier drains (Handle.CkptStall "drain")
	// RecoveryReads counts recovery-time checkpoint reads (Handle.RecoveryRead)
	// by failover-chain source, keyed by the metrics.Source* labels. The
	// series are world-scoped: one per source, shared by all ranks.
	RecoveryReads map[string]*metrics.Counter
	// The latest load-balance fit (Handle.LBFit).
	LBIntercept, LBSlope, LBResidual, LBObs *metrics.Gauge
}

// BindCore registers the job runner's per-rank series. Runners call it at
// construction, so a program that never runs a job registers none of them;
// binding again (a restarted job) finds the same series.
func (h *Handle) BindCore() {
	reg, rank := h.reg, h.rank
	if reg == nil {
		return
	}
	reads := make(map[string]*metrics.Counter)
	for _, src := range []string{metrics.SourceReplicaLocal, metrics.SourceReplicaPeer, metrics.SourcePFS} {
		reads[src] = reg.CounterL(metrics.MRecoveryReads,
			"Recovery-time checkpoint stream reads by failover-chain source.", "source", src)
	}
	h.Core = CoreInstruments{
		MapTask: reg.Histogram("ftmr_map_task_seconds",
			"Virtual-time latency of map task executions (including restores).",
			rank, metrics.TaskSecondsBuckets),
		ReducePart: reg.Histogram("ftmr_reduce_partition_seconds",
			"Virtual-time latency of reduce partition executions.",
			rank, metrics.TaskSecondsBuckets),
		TaskCommits: reg.Counter("ftmr_task_commits",
			"Task commit points (map task completions and reduce group commits).", rank),
		RecoveryAttempts: reg.Counter(metrics.MRecoveryAttempts,
			"Distributed-recovery episodes entered.", rank),
		CkptWriteWait: reg.Counter(metrics.MCkptWriteWait,
			"Main-thread seconds stalled writing checkpoint frames.", rank),
		CkptDrainWait: reg.Counter(metrics.MCkptDrainWait,
			"Seconds waiting in end-of-phase checkpoint drain barriers.", rank),
		RecoveryReads: reads,
		LBIntercept: reg.Gauge("ftmr_lb_fit_intercept_seconds",
			"Load-balance model intercept from the latest fit.", rank),
		LBSlope: reg.Gauge("ftmr_lb_fit_slope_seconds_per_byte",
			"Load-balance model slope from the latest fit.", rank),
		LBResidual: reg.Gauge("ftmr_lb_fit_rms_residual_seconds",
			"RMS residual of the latest load-balance fit over its observations.", rank),
		LBObs: reg.Gauge("ftmr_lb_fit_observations",
			"Observation count behind the latest load-balance fit.", rank),
	}
}

// FTInstruments are the replication execution model's per-rank counters.
type FTInstruments struct {
	MirrorSends, MirrorBytes *metrics.Counter // shadow-mirrored shuffle bundle copies sent, and their bytes
	ShadowSyncs              *metrics.Counter // reduce-progress records pushed to shadows (Handle.ShadowSyncPush)
	Failovers                *metrics.Counter // shadow promotions to acting primary (Handle.Failover)
}

// BindFT registers the replication model's per-rank series. Called only when
// the model is active, so unreplicated runs register no ftmr_ftmodel_* family.
func (h *Handle) BindFT() {
	reg, rank := h.reg, h.rank
	h.FT = FTInstruments{
		MirrorSends: reg.Counter("ftmr_ftmodel_mirror_sends",
			"Shadow-mirrored shuffle bundle copies sent.", rank),
		MirrorBytes: reg.Counter("ftmr_ftmodel_mirror_bytes",
			"Bytes of shadow-mirrored shuffle bundle copies.", rank),
		ShadowSyncs: reg.Counter("ftmr_ftmodel_shadow_syncs",
			"Reduce-progress sync records pushed to shadows.", rank),
		Failovers: reg.Counter("ftmr_ftmodel_failovers",
			"Shadow promotions to acting primary.", rank),
	}
}
