package core

import (
	"time"

	"ftmrmpi/internal/metrics"
)

// mirrorRankMetrics registers an OnSample hook that pushes the deltas of a
// runner's RankMetrics accumulators (which have many mutation sites) into
// per-rank registry counters. Each runner registers its own mirror, so job
// restarts — which replace the RankMetrics instance — accumulate correctly.
func mirrorRankMetrics(reg *metrics.Registry, m *RankMetrics, rank int) {
	if reg == nil {
		return
	}
	// mirrored is one accumulator: how to read it, how to push a delta of it
	// into its series, and the value pushed so far.
	type mirrored struct {
		cur  func() int64
		push func(delta int64)
		last int64
	}
	var all []*mirrored
	secs := func(name, help string, cur func() time.Duration) {
		c := reg.Counter(name, help, rank)
		all = append(all, &mirrored{cur: func() int64 { return int64(cur()) },
			push: func(d int64) { c.Add(time.Duration(d).Seconds()) }})
	}
	count := func(name, help string, cur func() int64) {
		c := reg.Counter(name, help, rank)
		all = append(all, &mirrored{cur: cur, push: func(d int64) { c.Add(float64(d)) }})
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

	reg.OnSample(func() {
		for _, x := range all {
			if cur := x.cur(); cur != x.last {
				x.push(cur - x.last)
				x.last = cur
			}
		}
	})
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
