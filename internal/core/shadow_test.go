package core

import (
	"bytes"
	"maps"
	"testing"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/kvbuf"
	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/sched"
	"ftmrmpi/internal/trace"
)

// ------------------------------------------------------------ codec tests --

func TestShadowSyncCodecRoundTrip(t *testing.T) {
	cases := []struct {
		part, groups uint32
		outLen       uint64
	}{
		{0, 0, 0},
		{1, 2, 3},
		{7, 4096, 1 << 20},
		{^uint32(0), ^uint32(0), ^uint64(0)},
	}
	for _, c := range cases {
		buf := encodeShadowSync(c.part, c.groups, c.outLen)
		if len(buf) != shadowSyncLen {
			t.Fatalf("encode(%v) produced %d bytes, want %d", c, len(buf), shadowSyncLen)
		}
		part, groups, outLen, err := decodeShadowSync(buf)
		if err != nil {
			t.Fatalf("decode(%v): %v", c, err)
		}
		if part != c.part || groups != c.groups || outLen != c.outLen {
			t.Fatalf("round trip (%d,%d,%d) -> (%d,%d,%d)",
				c.part, c.groups, c.outLen, part, groups, outLen)
		}
	}
}

func TestShadowSyncCodecRejectsBadLength(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 32} {
		if _, _, _, err := decodeShadowSync(make([]byte, n)); err == nil {
			t.Errorf("decode accepted a %d-byte frame", n)
		}
	}
}

func TestParseFTModel(t *testing.T) {
	cases := []struct {
		in   string
		want FTModel
		ok   bool
	}{
		{"", FTModelCR, true},
		{"cr", FTModelCR, true},
		{"replicate", FTModelReplicate, true},
		{"partial", FTModelPartial, true},
		{"CR", 0, false},
		{"shadow", 0, false},
	}
	for _, c := range cases {
		got, err := ParseFTModel(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseFTModel(%q): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseFTModel(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, m := range []FTModel{FTModelCR, FTModelReplicate, FTModelPartial} {
		back, err := ParseFTModel(m.String())
		if err != nil || back != m {
			t.Errorf("String/Parse not inverse for %v: got %v, %v", m, back, err)
		}
	}
}

// ------------------------------------------------------- end-to-end tests --

func countEvents(evs []trace.Event, k trace.Kind, name string) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == k && (name == "" || ev.Name == name) {
			n++
		}
	}
	return n
}

// replicateParts reads the raw bytes of each output partition (nil when the
// partition was never written).
func replicateParts(clus *cluster.Cluster, jobID string, parts int) [][]byte {
	out := make([][]byte, parts)
	for p := range out {
		if data, err := clus.PFS.Peek(outputPath(jobID, p)); err == nil {
			out[p] = data
		}
	}
	return out
}

// TestReplicateMatchesUnreplicatedBytes runs the same corpus twice: once
// with 8 ranks under -ft-model=replicate (4 primaries + 4 shadows, so 4
// partitions) and once with 4 plain ranks under the same detection model.
// Partition bytes must be identical: replication must be invisible in the
// output, which also proves mirrored duplicates commit exactly once — a
// double commit would double every count. The replicated run must actually
// feed its shadows: the exchange sends them copies (the mirror counters),
// each shadow merges exactly its primary's partitions, and shadow.sync
// pushes flow. The copies travel inside the one collective, so the trace
// holds no shadow.mirror event and every flow id is received once.
func TestReplicateMatchesUnreplicatedBytes(t *testing.T) {
	const name = "rep-bytes"
	merged := make(map[int]map[int]string) // world rank -> partition -> merged bytes
	run := func(ranks int, ftm FTModel) (*cluster.Cluster, []trace.Event) {
		clus := testCluster(4, 2)
		clus.Trace = trace.New(clus.Sim, 1<<20)
		clus.Metrics = metrics.New(clus.Sim)
		expect := genInput(clus, "in/"+name, 16, 40, 21)
		spec := wcSpec(name, ranks, ModelDetectResumeWC)
		spec.FTModel = ftm
		h := RunSingle(clus, spec)
		h.merged = func(w int, parts map[int]*kvbuf.KV) {
			merged[w] = make(map[int]string, len(parts))
			for part, kv := range parts {
				merged[w][part] = string(kv.Bytes())
			}
		}
		clus.Sim.Run()
		res := h.Result()
		if res == nil || res.Aborted {
			t.Fatalf("%d-rank %v job did not complete: %+v", ranks, ftm, res)
		}
		checkCounts(t, readOutput(t, clus, name, 4), expect, ftm.String())
		return clus, clus.Trace.Events()
	}

	plain, _ := run(4, FTModelCR)
	rep, evs := run(8, FTModelReplicate)

	base := replicateParts(plain, name, 4)
	got := replicateParts(rep, name, 4)
	for p := range base {
		if len(base[p]) == 0 {
			t.Fatalf("baseline partition %d is empty", p)
		}
		if !bytes.Equal(base[p], got[p]) {
			t.Fatalf("partition %d: replicate run differs from plain run (%d vs %d bytes)",
				p, len(got[p]), len(base[p]))
		}
	}
	snap := rep.Metrics.Snapshot()
	if n, b := snap.Total("ftmr_ftmodel_mirror_sends"), snap.Total("ftmr_ftmodel_mirror_bytes"); n <= 0 || b <= 0 {
		t.Errorf("mirror sends %v, bytes %v: the exchange fed no shadow", n, b)
	}
	pr := sched.PairRanks(8, rep.Cfg.PPN, len(rep.Nodes), 1)
	for slot := 0; slot < pr.P; slot++ {
		s := pr.Shadow[slot]
		if len(merged[slot]) == 0 || !maps.Equal(merged[s], merged[slot]) {
			t.Errorf("shadow %d merged %d partitions unlike its primary %d's %d", s, len(merged[s]), slot, len(merged[slot]))
		}
	}
	if n := countEvents(evs, trace.KindShadowMirror, ""); n != 0 {
		t.Errorf("%d shadow.mirror events: the shuffle still sends mirror copies", n)
	}
	if fr := trace.CheckFlows(evs); !fr.OK() {
		t.Errorf("flow violations: %v", fr.Violations)
	}
	if n := countEvents(evs, trace.KindShadowSync, "push"); n == 0 {
		t.Error("no shadow.sync push events: reduce progress never mirrored")
	}
	if n := countEvents(evs, trace.KindFailover, ""); n != 0 {
		t.Errorf("%d failover events in a failure-free run", n)
	}
}

// TestPartialReplicateNoFailure checks the PartRePer-style fractional model:
// with 8 ranks and the default fraction 0.5, only part of the slots get a
// shadow, yet a failure-free run still produces correct output.
func TestPartialReplicateNoFailure(t *testing.T) {
	clus := testCluster(4, 2)
	name := "partial-ff"
	expect := genInput(clus, "in/"+name, 16, 40, 23)
	spec := wcSpec(name, 8, ModelDetectResumeWC)
	spec.FTModel = FTModelPartial
	h := RunSingle(clus, spec)
	clus.Sim.Run()
	res := h.Result()
	if res == nil || res.Aborted {
		t.Fatalf("job did not complete: %+v", res)
	}
	// fraction 0.5 over 8 ranks -> 5 primaries, 3 shadows -> 5 partitions.
	checkCounts(t, readOutput(t, clus, name, 5), expect, "partial")
}

// TestReplicateFailoverNoReplay kills a primary mid-reduce under
// -ft-model=replicate. Its shadow must take over with no replay and no
// checkpoint read: the job completes with correct output, the trace holds a
// promote event, and no rank restores or skips a single committed record.
func TestReplicateFailoverNoReplay(t *testing.T) {
	clus := testCluster(4, 2)
	clus.Trace = trace.New(clus.Sim, 1<<20)
	name := "rep-failover"
	expect := genInput(clus, "in/"+name, 16, 40, 27)
	spec := wcSpec(name, 8, ModelDetectResumeWC)
	spec.FTModel = FTModelReplicate
	h := RunSingle(clus, spec)
	killDuring(h, 1, PhaseReduce, time.Millisecond) // rank 1 is a primary slot
	clus.Sim.Run()
	res := h.Result()
	if res == nil || res.Aborted {
		t.Fatalf("job did not complete: %+v", res)
	}
	if len(res.FailedRanks) == 0 {
		t.Fatal("kill never landed")
	}
	checkCounts(t, readOutput(t, clus, name, 4), expect, "rep-failover")

	evs := clus.Trace.Events()
	if n := countEvents(evs, trace.KindFailover, "promote"); n == 0 {
		t.Error("no ftmodel.failover promote event: shadow was never promoted")
	}
	var restored, skipped int64
	for _, m := range res.Ranks {
		if m != nil {
			restored += m.RecordsRestored
			skipped += m.RecordsSkipped
		}
	}
	if restored != 0 || skipped != 0 {
		t.Errorf("failover replayed state: restored=%d skipped=%d, want 0/0", restored, skipped)
	}
}

// TestReplicateShadowDeathIsInvisible kills a shadow rank mid-reduce: the
// pair's primary keeps running, nothing is promoted, and the output is
// untouched.
func TestReplicateShadowDeathIsInvisible(t *testing.T) {
	clus := testCluster(4, 2)
	clus.Trace = trace.New(clus.Sim, 1<<20)
	name := "rep-shadow-kill"
	expect := genInput(clus, "in/"+name, 16, 40, 29)
	spec := wcSpec(name, 8, ModelDetectResumeWC)
	spec.FTModel = FTModelReplicate
	h := RunSingle(clus, spec)
	killDuring(h, 6, PhaseReduce, time.Millisecond) // rank 6 is a shadow
	clus.Sim.Run()
	res := h.Result()
	if res == nil || res.Aborted {
		t.Fatalf("job did not complete: %+v", res)
	}
	checkCounts(t, readOutput(t, clus, name, 4), expect, "shadow-kill")
	if n := countEvents(clus.Trace.Events(), trace.KindFailover, ""); n != 0 {
		t.Errorf("%d failover events after a shadow death, want 0", n)
	}
}
