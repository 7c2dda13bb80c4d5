package core

import (
	"time"

	"ftmrmpi/internal/metrics"
)

// mirrorRankMetrics makes a runner's RankMetrics accumulators (which have
// many mutation sites) the source of their per-rank registry counters: each
// series reads its field when the registry takes a snapshot. Each runner
// registers its own readers, so a rank that runs several jobs, or a
// restarted job, sums them.
func mirrorRankMetrics(reg *metrics.Registry, m *RankMetrics) {
	if reg == nil {
		return
	}
	lv := metrics.RankLabel(m.WorldRank)
	secs := func(name, help string, cur func() time.Duration) {
		reg.CounterFunc(name, help, "rank", lv, func() float64 { return cur().Seconds() })
	}
	count := func(name, help string, cur func() int64) {
		reg.CounterFunc(name, help, "rank", lv, func() float64 { return float64(cur()) })
	}
	secs(metrics.MCPUMain, "Main-thread CPU seconds.", func() time.Duration { return m.CPUMain })
	secs(metrics.MCPUCopier, "Copier-thread CPU seconds (same core).", func() time.Duration { return m.CPUCopier })
	secs(metrics.MIOWait, "Main-thread storage wait seconds.", func() time.Duration { return m.IOWait })
	secs(metrics.MCopierIO, "Copier-thread storage wait seconds.", func() time.Duration { return m.CopierIO })
	secs(metrics.MNetWait, "Seconds inside communication calls.", func() time.Duration { return m.NetWait })
	secs(metrics.MRecoveryInit, "Recovery seconds: shrink/agree/table rebuild.", func() time.Duration { return m.Recovery.Init })
	secs(metrics.MRecoveryLoad, "Recovery seconds: reading checkpoint data.", func() time.Duration { return m.Recovery.LoadCkpt })
	secs(metrics.MRecoverySkip, "Recovery seconds: skipping committed records.", func() time.Duration { return m.Recovery.Skip })
	secs(metrics.MRecoveryReprocess, "Recovery seconds: re-executing lost work.", func() time.Duration { return m.Recovery.Reprocess })
	secs(metrics.MRecoverySeconds, "Seconds spent in the recovery phase.", func() time.Duration { return m.PhaseTime[PhaseRecovery] })
	count("ftmr_records_mapped", "Input records mapped.", func() int64 { return m.RecordsMapped })
	count("ftmr_records_skipped", "Committed records skipped during recovery.", func() int64 { return m.RecordsSkipped })
	count("ftmr_records_restored", "Records restored from checkpoint frames.", func() int64 { return m.RecordsRestored })
	count("ftmr_groups_reduced", "Key groups reduced.", func() int64 { return m.GroupsReduced })
	count("ftmr_ckpt_frames", "Checkpoint frames written.", func() int64 { return m.CkptFrames })
	count("ftmr_ckpt_bytes", "Checkpoint bytes written.", func() int64 { return m.CkptBytes })
	count(metrics.MShuffleBytes, "Shuffle bytes received.", func() int64 { return m.ShuffleBytes })
	count("ftmr_recovered_frames", "Checkpoint frames replayed during recovery.", func() int64 { return m.RecoveredFrames })
	count("ftmr_recovered_bytes", "Checkpoint bytes replayed during recovery.", func() int64 { return m.RecoveredBytes })
	count(metrics.MCkptQuarantines, "Checkpoint streams truncated to their longest valid prefix.",
		func() int64 { return m.Counters["ckpt_corrupt"] })
}

// mirrorUserCounter makes m.Counters[name] the source of the rank's
// user_<sanitized name> series. TaskContext.AddCounter calls it on the first
// use of a name in a job.
func mirrorUserCounter(reg *metrics.Registry, m *RankMetrics, name string) {
	if reg == nil {
		return
	}
	reg.CounterFunc("user_"+metrics.SanitizeName(name), "User-defined counter (TaskContext.AddCounter).",
		"rank", metrics.RankLabel(m.WorldRank), func() float64 { return float64(m.Counters[name]) })
}

// ExportResultMetrics publishes job-outcome signals — missing ranks, failed
// ranks, aborted attempts — as world-scoped gauges, so the health report can
// distinguish a degraded-but-successful run from a clean one. Call it after
// the run, before the final snapshot. Nil-safe.
func ExportResultMetrics(reg *metrics.Registry, results []*Result) {
	if reg == nil {
		return
	}
	missing, failed, aborted := 0, 0, 0
	for _, res := range results {
		if res == nil {
			continue
		}
		missing += len(res.MissingRanks())
		failed += len(res.FailedRanks)
		if res.Aborted {
			aborted++
		}
	}
	reg.Gauge(metrics.MMissingRanks,
		"World slots with no surviving per-rank metrics across results.", -1).Set(float64(missing))
	reg.Gauge(metrics.MFailedRanks,
		"Ranks lost to failures across results.", -1).Set(float64(failed))
	reg.Gauge(metrics.MJobsAborted,
		"Job attempts that ended aborted.", -1).Set(float64(aborted))
}
