// Integration tests for the metrics plane against real simulated runs: the
// exported OpenMetrics text must be byte-identical across same-seed chaos
// reruns, the registry's world aggregates must agree with the independently
// maintained RankMetrics accumulators and the trace summarizer on every
// shared quantity, and the SLO health gate must pass with defaults on the
// standard failover run while demonstrably firing when tightened.
package metrics_test

import (
	"bytes"
	"math"
	"testing"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
	"ftmrmpi/internal/failure"
	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/trace"
	"ftmrmpi/internal/workloads"
)

const intParts = 8

func intCorpus() workloads.WordcountParams {
	p := workloads.DefaultWordcount()
	p.Chunks = 24
	p.Lines = 24
	p.WordsLine = 4
	p.Vocab = 300
	return p
}

// intCluster builds an 8-rank cluster with tracing and a live registry.
func intCluster() *cluster.Cluster {
	cfg := cluster.Default()
	cfg.Nodes = 4
	cfg.PPN = 2
	clus := cluster.New(cfg)
	clus.Trace = trace.New(clus.Sim, 1<<20)
	clus.Metrics = metrics.New(clus.Sim)
	return clus
}

func intSpec(name string, p workloads.WordcountParams) core.Spec {
	spec := workloads.WordcountSpec(name, "in/"+name, intParts, p)
	spec.Model = core.ModelDetectResumeWC
	spec.CkptInterval = 25
	spec.LoadBalance = true
	return spec
}

// stdCorpus and stdSpec mirror the ftmr-sim defaults (scaled down in chunk
// count for test speed, but with the standard records-per-checkpoint
// cadence) so the health-gate assertions measure the documented standard
// configuration, not the deliberately checkpoint-heavy chaos one.
func stdCorpus() workloads.WordcountParams {
	p := workloads.DefaultWordcount()
	p.Chunks = 96
	p.Vocab = 5000
	return p
}

func stdSpec(name string, p workloads.WordcountParams) core.Spec {
	spec := intSpec(name, p)
	spec.CkptInterval = 100
	return spec
}

// finalSnapshot ends a run the way ftmr-sim does: export result-level
// gauges, then take the terminal snapshot.
func finalSnapshot(clus *cluster.Cluster, h *core.Handle) metrics.Snapshot {
	core.ExportResultMetrics(clus.Metrics, h.Results())
	return clus.Metrics.Snapshot()
}

// chaosExposition runs one seeded chaos campaign (random kills plus storage
// faults on every tier) and returns the final exposition bytes.
func chaosExposition(t *testing.T, seed int64, window time.Duration) []byte {
	t.Helper()
	clus := intCluster()
	p := intCorpus()
	workloads.GenCorpus(clus, "in/chaos", p)
	failure.StorageFaults(clus, seed)
	h := core.RunSingle(clus, intSpec("chaos", p))
	failure.Chaos(h, seed, 2, window)
	clus.Sim.Run()
	if res := h.Result(); res == nil || res.Aborted {
		t.Fatalf("seed %d: chaos run aborted: %+v", seed, res)
	}
	var buf bytes.Buffer
	if err := metrics.WriteOpenMetrics(&buf, finalSnapshot(clus, h)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The introspection plane ticks on its own cadence for as long as the job
// has work, and no longer: a failover job it observes ends at the same
// virtual instant as an unobserved one, and the simulation with it.
func TestSamplerAndIntrospectionCadencesEndWithTheJob(t *testing.T) {
	run := func(observed bool) (end, simEnd time.Duration, snaps int) {
		clus := intCluster()
		p := intCorpus()
		workloads.GenCorpus(clus, "in/obs", p)
		if observed {
			clus.Introspect = introspect.New(clus.Sim, 7*time.Millisecond)
		}
		h := core.RunSingle(clus, intSpec("obs", p))
		failure.KillOnPhase(h, 3, core.PhaseMap, time.Millisecond)
		clus.Introspect.Start()
		simEnd = clus.Sim.Run()
		res := h.Result()
		if res == nil || res.Aborted {
			t.Fatalf("observed=%v: job aborted: %+v", observed, res)
		}
		return res.End, simEnd, len(clus.Introspect.Snapshots())
	}
	bare, _, _ := run(false)
	end, simEnd, snaps := run(true)
	if end != bare {
		t.Fatalf("observed job ends at %v, unobserved at %v", end, bare)
	}
	if simEnd > end+7*time.Millisecond {
		t.Fatalf("simulation ran on to %v after the job ended at %v", simEnd, end)
	}
	if snaps < int(end/(7*time.Millisecond)) {
		t.Fatalf("%d snapshots over %v: the cadence stopped early", snaps, end)
	}
}

// TestChaosSnapshotDeterminism runs the same seeded chaos campaign twice and
// requires byte-identical OpenMetrics exposition — the metrics plane must
// not perturb or observe anything outside virtual time. The export must also
// parse back cleanly.
func TestChaosSnapshotDeterminism(t *testing.T) {
	// Failure-free baseline fixes the kill window, like the chaos harness.
	base := intCluster()
	p := intCorpus()
	workloads.GenCorpus(base, "in/chaos", p)
	hb := core.RunSingle(base, intSpec("chaos", p))
	base.Sim.Run()
	if res := hb.Result(); res == nil || res.Aborted {
		t.Fatalf("baseline aborted: %+v", res)
	}
	window := base.Sim.Now() * 6 / 10

	a := chaosExposition(t, 7, window)
	b := chaosExposition(t, 7, window)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed chaos expositions differ:\n--- A ---\n%s\n--- B ---\n%s", a, b)
	}
	snap, err := metrics.ParseOpenMetrics(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("chaos exposition does not parse: %v", err)
	}
	if len(snap.Families) == 0 || snap.VTSeconds <= 0 {
		t.Fatalf("chaos exposition empty: vt=%v, %d families", snap.VTSeconds, len(snap.Families))
	}
	// Storage chaos must have left injection evidence in the export.
	var injected float64
	for _, name := range []string{"ftmr_storage_torn_writes", "ftmr_storage_bit_flips",
		"ftmr_storage_read_errors", "ftmr_storage_read_spikes", "ftmr_storage_write_spikes"} {
		injected += snap.Total(name)
	}
	if injected == 0 {
		t.Fatalf("no storage faults recorded in chaos exposition")
	}
	if snap.Total("ftmr_failures_injected") == 0 {
		t.Fatalf("no process kills recorded in chaos exposition")
	}
}

// secondsEq compares a registry total (accumulated as per-snapshot deltas of
// float seconds) with a duration total, to float accumulation tolerance.
func secondsEq(got float64, want time.Duration) bool {
	return math.Abs(got-want.Seconds()) < 1e-9
}

// TestAggregatesAgreeWithRankMetricsAndTrace runs a clean (failure-free)
// wordcount and checks every quantity the metrics plane shares with the two
// older observability surfaces: the RankMetrics accumulators on the Result
// and the trace summarizer. The registry is populated by independent
// mechanisms (inline instruments and delta-mirror hooks), so agreement here
// means the three planes cannot silently drift apart.
func TestAggregatesAgreeWithRankMetricsAndTrace(t *testing.T) {
	clus := intCluster()
	p := stdCorpus()
	workloads.GenCorpus(clus, "in/agree", p)
	h := core.RunSingle(clus, stdSpec("agree", p))
	clus.Sim.Run()
	res := h.Result()
	if res == nil || res.Aborted {
		t.Fatalf("run aborted: %+v", res)
	}
	snap := finalSnapshot(clus, h)

	// Versus RankMetrics: integer counts must be exact, durations within
	// float tolerance. Per-rank series must match rank by rank, not just in
	// total.
	var wantMapped, wantSkipped, wantGroups, wantCkptFrames, wantCkptBytes, wantShuffle int64
	var wantCPUMain, wantIOWait, wantNetWait, wantCopierCPU, wantCopierIO time.Duration
	for _, m := range res.Ranks {
		if m == nil {
			continue
		}
		wantMapped += m.RecordsMapped
		wantSkipped += m.RecordsSkipped
		wantGroups += m.GroupsReduced
		wantCkptFrames += m.CkptFrames
		wantCkptBytes += m.CkptBytes
		wantShuffle += m.ShuffleBytes
		wantCPUMain += m.CPUMain
		wantIOWait += m.IOWait
		wantNetWait += m.NetWait
		wantCopierCPU += m.CPUCopier
		wantCopierIO += m.CopierIO
		if v, ok := snap.Series("ftmr_records_mapped", metrics.RankLabel(m.WorldRank)); !ok || v != float64(m.RecordsMapped) {
			t.Errorf("rank %d records mapped: registry %v, RankMetrics %d", m.WorldRank, v, m.RecordsMapped)
		}
		if v, ok := snap.Series(metrics.MShuffleBytes, metrics.RankLabel(m.WorldRank)); !ok || v != float64(m.ShuffleBytes) {
			t.Errorf("rank %d shuffle bytes: registry %v, RankMetrics %d", m.WorldRank, v, m.ShuffleBytes)
		}
	}
	for _, tc := range []struct {
		family string
		want   int64
	}{
		{"ftmr_records_mapped", wantMapped},
		{"ftmr_records_skipped", wantSkipped},
		{"ftmr_groups_reduced", wantGroups},
		{"ftmr_ckpt_frames", wantCkptFrames},
		{"ftmr_ckpt_bytes", wantCkptBytes},
		{metrics.MShuffleBytes, wantShuffle},
	} {
		if got := snap.Total(tc.family); got != float64(tc.want) {
			t.Errorf("%s: registry %v, RankMetrics %d", tc.family, got, tc.want)
		}
	}
	for _, tc := range []struct {
		family string
		want   time.Duration
	}{
		{metrics.MCPUMain, wantCPUMain},
		{metrics.MIOWait, wantIOWait},
		{metrics.MNetWait, wantNetWait},
		{metrics.MCPUCopier, wantCopierCPU},
		{metrics.MCopierIO, wantCopierIO},
	} {
		if got := snap.Total(tc.family); !secondsEq(got, tc.want) {
			t.Errorf("%s: registry %v, RankMetrics %v", tc.family, got, tc.want)
		}
	}

	// Versus the trace summarizer, on the quantities both planes observe.
	s := trace.Summarize(clus.Trace.Events())
	var wantSends, wantSendBytes, wantRecvs, wantRecvBytes, wantCommits int64
	for r := 0; r < intParts; r++ {
		rs := s.Rank(r)
		wantSends += rs.Sends
		wantSendBytes += rs.SendBytes
		wantRecvs += rs.Recvs
		wantRecvBytes += rs.RecvBytes
		wantCommits += rs.TaskCommits
	}
	for _, tc := range []struct {
		family string
		want   int64
	}{
		{"ftmr_mpi_sends", wantSends},
		{"ftmr_mpi_send_bytes", wantSendBytes},
		{"ftmr_mpi_recvs", wantRecvs},
		{"ftmr_mpi_recv_bytes", wantRecvBytes},
		{"ftmr_task_commits", wantCommits},
	} {
		if got := snap.Total(tc.family); got != float64(tc.want) {
			t.Errorf("%s: registry %v, trace %d", tc.family, got, tc.want)
		}
	}

	// A clean run must evaluate healthy and undegraded with defaults.
	hl := metrics.Evaluate(snap, metrics.DefaultSLO())
	if hl.Breached() || hl.Degraded {
		t.Errorf("clean run unhealthy: breached=%v degraded=%v %+v",
			hl.Breached(), hl.Degraded, hl.Indicators)
	}
}

// TestHealthGateOnFailoverRun runs the standard single-failure wordcount
// (one rank killed at the map phase) and pins both gate outcomes the docs
// promise: default SLOs pass while marking the run degraded, and an
// artificially tight checkpoint-overhead bound fires.
func TestHealthGateOnFailoverRun(t *testing.T) {
	clus := intCluster()
	p := stdCorpus()
	workloads.GenCorpus(clus, "in/gate", p)
	h := core.RunSingle(clus, stdSpec("gate", p))
	failure.KillOnPhase(h, 3, core.PhaseMap, time.Millisecond)
	clus.Sim.Run()
	res := h.Result()
	if res == nil || res.Aborted {
		t.Fatalf("failover run aborted: %+v", res)
	}
	snap := finalSnapshot(clus, h)

	hl := metrics.Evaluate(snap, metrics.DefaultSLO())
	if hl.Breached() {
		t.Fatalf("default SLOs breached on the standard failover run: %+v", hl.Indicators)
	}
	if !hl.Degraded {
		t.Fatalf("failover run not marked degraded: %+v", hl.Indicators)
	}
	if snap.Total(metrics.MRecoveryAttempts) == 0 {
		t.Fatalf("no recovery attempt recorded after a kill")
	}
	if snap.Total(metrics.MFailedRanks) == 0 {
		t.Fatalf("failed-rank marker not exported")
	}

	tight := metrics.DefaultSLO()
	tight.MaxCkptOverhead = 1e-9
	hl = metrics.Evaluate(snap, tight)
	if !hl.Breached() {
		t.Fatalf("tight ckpt-overhead SLO did not fire: %+v", hl.Indicators)
	}
}
