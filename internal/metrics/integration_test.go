// Integration tests for the metrics plane against real simulated runs: the
// exported OpenMetrics text must be byte-identical across same-seed chaos
// reruns, the series the registry reads from RankMetrics and FaultStats must
// equal them across several jobs, the inline counters must agree with the
// trace summarizer on every shared quantity, and the SLO health gate must
// pass with defaults on the standard failover run while demonstrably firing
// when tightened.
package metrics_test

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
	"ftmrmpi/internal/failure"
	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/storage"
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

// TestAggregatesAgreeWithRankMetricsAndTrace runs a clean (failure-free)
// wordcount and checks every quantity the metrics plane counts inline against
// the trace summarizer, which re-derives it offline from the event stream, and
// that the run evaluates healthy. (What the registry reads from RankMetrics
// agrees with it by construction: TestFoldedSeriesEqualTheirSource.)
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

// folded are the per-rank families the registry reads from a runner's
// RankMetrics at snapshot time, with the field each one reads. secs marks a
// duration, exported in seconds.
var folded = []struct {
	family string
	secs   bool
	of     func(m *core.RankMetrics) int64
}{
	{metrics.MCPUMain, true, func(m *core.RankMetrics) int64 { return int64(m.CPUMain) }},
	{metrics.MCPUCopier, true, func(m *core.RankMetrics) int64 { return int64(m.CPUCopier) }},
	{metrics.MIOWait, true, func(m *core.RankMetrics) int64 { return int64(m.IOWait) }},
	{metrics.MCopierIO, true, func(m *core.RankMetrics) int64 { return int64(m.CopierIO) }},
	{metrics.MNetWait, true, func(m *core.RankMetrics) int64 { return int64(m.NetWait) }},
	{metrics.MRecoveryInit, true, func(m *core.RankMetrics) int64 { return int64(m.Recovery.Init) }},
	{metrics.MRecoveryLoad, true, func(m *core.RankMetrics) int64 { return int64(m.Recovery.LoadCkpt) }},
	{metrics.MRecoverySkip, true, func(m *core.RankMetrics) int64 { return int64(m.Recovery.Skip) }},
	{metrics.MRecoveryReprocess, true, func(m *core.RankMetrics) int64 { return int64(m.Recovery.Reprocess) }},
	{metrics.MRecoverySeconds, true, func(m *core.RankMetrics) int64 { return int64(m.PhaseTime[core.PhaseRecovery]) }},
	{"ftmr_records_mapped", false, func(m *core.RankMetrics) int64 { return m.RecordsMapped }},
	{"ftmr_records_skipped", false, func(m *core.RankMetrics) int64 { return m.RecordsSkipped }},
	{"ftmr_records_restored", false, func(m *core.RankMetrics) int64 { return m.RecordsRestored }},
	{"ftmr_groups_reduced", false, func(m *core.RankMetrics) int64 { return m.GroupsReduced }},
	{"ftmr_ckpt_frames", false, func(m *core.RankMetrics) int64 { return m.CkptFrames }},
	{"ftmr_ckpt_bytes", false, func(m *core.RankMetrics) int64 { return m.CkptBytes }},
	{metrics.MShuffleBytes, false, func(m *core.RankMetrics) int64 { return m.ShuffleBytes }},
	{"ftmr_recovered_frames", false, func(m *core.RankMetrics) int64 { return m.RecoveredFrames }},
	{"ftmr_recovered_bytes", false, func(m *core.RankMetrics) int64 { return m.RecoveredBytes }},
	{metrics.MCkptQuarantines, false, func(m *core.RankMetrics) int64 { return m.Counters["ckpt_corrupt"] }},
}

// foldedWant sums, per family and rank label, what the registry should read
// from every runner behind results: the folded RankMetrics fields and each
// user counter.
func foldedWant(results []*core.Result) map[string]map[string]float64 {
	want := map[string]map[string]float64{}
	add := func(family, lv string, v float64) {
		if want[family] == nil {
			want[family] = map[string]float64{}
		}
		want[family][lv] += v
	}
	for _, res := range results {
		for _, m := range res.Ranks {
			if m == nil {
				continue
			}
			lv := metrics.RankLabel(m.WorldRank)
			for _, f := range folded {
				v := float64(f.of(m))
				if f.secs {
					v = time.Duration(f.of(m)).Seconds()
				}
				add(f.family, lv, v)
			}
			for name, n := range m.Counters {
				if name != "ckpt_corrupt" {
					add("user_"+metrics.SanitizeName(name), lv, float64(n))
				}
			}
		}
	}
	return want
}

// checkFolded asserts that every series the registry reads from another
// accumulator equals that accumulator: each per-rank family (counts exact,
// seconds within 1e-9) against the RankMetrics of every job the rank ran,
// every user_ family against the user counters, and each storage tier's
// fault families against that tier's FaultStats.
func checkFolded(t *testing.T, snap metrics.Snapshot, clus *cluster.Cluster, want map[string]map[string]float64) {
	t.Helper()
	for _, f := range snap.Families {
		if strings.HasPrefix(f.Name, "user_") && want[f.Name] == nil {
			t.Errorf("%s: in the registry, but no job counted it", f.Name)
		}
	}
	for family, byRank := range want {
		f := snap.Family(family)
		if f == nil {
			t.Errorf("%s: missing from the registry", family)
			continue
		}
		if len(f.Series) != len(byRank) {
			t.Errorf("%s: %d series, want one per rank that ran a job (%d)", family, len(f.Series), len(byRank))
		}
		tol := 0.0
		for _, f := range folded {
			if f.family == family && f.secs {
				tol = 1e-9
			}
		}
		for lv, w := range byRank {
			if got, ok := snap.Series(family, lv); !ok || math.Abs(got-w) > tol {
				t.Errorf("%s{rank=%q}: registry %v (present %v), source %v", family, lv, got, ok, w)
			}
		}
	}
	tiers := []*storage.Tier{clus.PFS}
	for _, n := range clus.Nodes {
		tiers = append(tiers, n.Local)
	}
	for _, tier := range tiers {
		if tier.Faults == nil {
			continue
		}
		st := tier.Faults.Stats
		for family, n := range map[string]int{
			"ftmr_storage_torn_writes":  st.TornWrites,
			"ftmr_storage_bit_flips":    st.BitFlips,
			"ftmr_storage_read_errors":  st.ReadErrors,
			"ftmr_storage_read_spikes":  st.ReadSpikes,
			"ftmr_storage_write_spikes": st.WriteSpikes,
			"ftmr_storage_outage_ops":   st.OutageOps,
		} {
			if got, ok := snap.Series(family, tier.Name); !ok || got != float64(n) {
				t.Errorf("%s{tier=%q}: registry %v (present %v), FaultStats %d", family, tier.Name, got, ok, n)
			}
		}
	}
}

// TestFoldedSeriesEqualTheirSource checks the read-at-snapshot series after
// runs in which one series has several sources: a PageRank driver (four jobs
// on one world, so four runners per rank) losing a rank to a DR-WC kill, and
// a checkpoint/restart wordcount under storage chaos that aborts and is
// resubmitted with Resume on the same cluster, quarantining corrupted
// checkpoint streams on the way.
func TestFoldedSeriesEqualTheirSource(t *testing.T) {
	t.Run("pagerank", func(t *testing.T) {
		clus := intCluster()
		p := workloads.DefaultPageRank()
		p.Graph.Nodes, p.Graph.Chunks = 1000, 16
		workloads.GenPageRankInput(clus, "in/pr", p)
		h := core.Launch(clus, intParts, func(app *core.App) {
			base := core.Spec{Model: core.ModelDetectResumeWC, LoadBalance: true}
			_, _ = workloads.PageRankDriver(app, base, "pr", "in/pr", 2, p)
		})
		failure.KillOnPhase(h, 3, core.PhaseMap, time.Millisecond)
		clus.Sim.Run()
		results := h.Results()
		if len(results) != 4 || len(results[0].FailedRanks) != 1 {
			t.Fatalf("%d jobs, first lost %v; want 4 jobs and one kill", len(results), results[0].FailedRanks)
		}
		want := foldedWant(results)
		if want["user_rankmass_e12"] == nil {
			t.Fatal("the driver counted no user counter")
		}
		checkFolded(t, clus.Metrics.Snapshot(), clus, want)
	})
	t.Run("cr-resume-storage-faults", func(t *testing.T) {
		const crFaultSeed = 7 // quarantines two checkpoint streams
		clus := intCluster()
		p := intCorpus()
		workloads.GenCorpus(clus, "in/crf", p)
		failure.StorageFaults(clus, crFaultSeed)
		spec := intSpec("crf", p)
		spec.Model = core.ModelCheckpointRestart
		h1 := core.RunSingle(clus, spec)
		failure.KillOnPhase(h1, 5, core.PhaseReduce, time.Millisecond)
		clus.Sim.Run()
		if !h1.Result().Aborted {
			t.Fatal("first attempt did not abort")
		}
		spec.Resume = true
		h2 := core.RunSingle(clus, spec)
		clus.Sim.Run()
		if h2.Result().Aborted {
			t.Fatal("resubmission aborted")
		}
		want := foldedWant(append(h1.Results(), h2.Results()...))
		var quarantined float64
		for _, v := range want[metrics.MCkptQuarantines] {
			quarantined += v
		}
		if quarantined == 0 {
			t.Fatalf("seed %d quarantined no checkpoint stream; the quarantine check would be vacuous", crFaultSeed)
		}
		checkFolded(t, clus.Metrics.Snapshot(), clus, want)
	})
}
