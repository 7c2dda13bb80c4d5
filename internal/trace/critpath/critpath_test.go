package critpath

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"ftmrmpi/internal/trace"
)

// ev builds one test event. VT is given in milliseconds for readability.
func ev(seq uint64, vtMS int64, rank int, kind trace.Kind, name string) trace.Event {
	return trace.Event{Seq: seq, VT: time.Duration(vtMS) * time.Millisecond, Rank: rank, Kind: kind, Name: name}
}

// sumCategories returns the total critical-path time across every category.
func sumCategories(r *Report) time.Duration {
	var total time.Duration
	for _, d := range r.ByCategory {
		total += d
	}
	return total
}

// TestAnalyzeDegenerate pins the failure contract: a trace with no events,
// only drop markers, or missing anchors must produce a distinct error —
// never a panic and never a silently zero-length path.
func TestAnalyzeDegenerate(t *testing.T) {
	cases := []struct {
		name   string
		events []trace.Event
		want   string // substring of the expected error
	}{
		{"empty", nil, "empty trace"},
		{"drops-only", []trace.Event{
			{Seq: 1, Kind: trace.KindDrops, A: 17},
		}, "only drop markers"},
		{"no-begin", []trace.Event{
			ev(1, 0, 0, trace.KindPhaseBegin, "map"),
			ev(2, 10, 0, trace.KindJobEnd, "j"),
		}, "no job.begin"},
		{"no-end", []trace.Event{
			ev(1, 0, 0, trace.KindJobBegin, "j"),
			ev(2, 10, 0, trace.KindTaskCommit, "map"),
		}, "no job.end"},
		{"degenerate-anchors", []trace.Event{
			ev(1, 10, 0, trace.KindJobBegin, "j"),
			ev(2, 10, 0, trace.KindJobEnd, "j"),
		}, "degenerate anchors"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Analyze(tc.events)
			if err == nil {
				t.Fatalf("Analyze succeeded (%+v), want error containing %q", rep, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestAnalyzeSingleRank walks a single-rank trace with no cross edges: the
// path is pure program order, covers the whole makespan, and the category
// sums telescope exactly.
func TestAnalyzeSingleRank(t *testing.T) {
	events := []trace.Event{
		ev(1, 0, 0, trace.KindJobBegin, "j"),
		ev(2, 0, 0, trace.KindPhaseBegin, "map"),
		ev(3, 80, 0, trace.KindTaskCommit, "map"),
		ev(4, 90, 0, trace.KindCkptCommit, "kv.0"),
		ev(5, 95, 0, trace.KindPhaseEnd, "map"),
		ev(6, 100, 0, trace.KindJobEnd, "j"),
	}
	rep, err := Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	if rep.JobID != "j" || rep.Makespan != 100*time.Millisecond {
		t.Fatalf("anchors: job %q makespan %v, want j/100ms", rep.JobID, rep.Makespan)
	}
	if got := sumCategories(rep); got != rep.Makespan {
		t.Fatalf("category sum %v != makespan %v", got, rep.Makespan)
	}
	if got := rep.ByCategory[CatCompute]; got != 90*time.Millisecond {
		t.Errorf("compute = %v, want 90ms", got)
	}
	if got := rep.ByCategory[CatCkptWrite]; got != 10*time.Millisecond {
		t.Errorf("ckpt-write = %v, want 10ms", got)
	}
	if rep.CrossEdges != 0 {
		t.Errorf("CrossEdges = %d on a single-thread trace", rep.CrossEdges)
	}
	if rep.Unreliable || rep.Dropped != 0 {
		t.Errorf("clean trace marked unreliable (%d dropped)", rep.Dropped)
	}
}

// TestFlowEdgeCrossesRanks pins the send→recv happens-before rule: a rank
// idling in a receive binds to the sender's send.end, so the path hops to
// the rank that actually produced the awaited message.
func TestFlowEdgeCrossesRanks(t *testing.T) {
	send := ev(3, 10, 0, trace.KindSendEnd, "")
	send.Flow = 7
	recv := ev(4, 50, 1, trace.KindRecvEnd, "")
	recv.Flow = 7
	events := []trace.Event{
		ev(1, 0, 0, trace.KindJobBegin, "j"),
		ev(2, 0, 1, trace.KindJobBegin, "j"),
		send,
		recv,
		ev(5, 60, 1, trace.KindTaskCommit, "map"),
		ev(6, 60, 1, trace.KindJobEnd, "j"),
	}
	rep, err := Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	if got := sumCategories(rep); got != rep.Makespan {
		t.Fatalf("category sum %v != makespan %v", got, rep.Makespan)
	}
	if rep.CrossEdges == 0 {
		t.Fatal("path never hopped ranks; flow edge not taken")
	}
	if got := rep.ByRank[0]; got != 10*time.Millisecond {
		t.Errorf("rank 0 path time = %v, want 10ms (its chain up to send.end)", got)
	}
	if got := rep.ByRank[1]; got != 50*time.Millisecond {
		t.Errorf("rank 1 path time = %v, want 50ms", got)
	}
	if got := rep.ByCategory[CatShuffleWait]; got != 50*time.Millisecond {
		t.Errorf("shuffle-wait = %v, want 50ms (40ms recv idle + 10ms up to send.end)", got)
	}
}

// TestCollectiveFanIn pins the collective edge rule: an exit binds to the
// latest entrant of the same (comm, seq) instance, so barrier skew routes
// the path through the straggler — also for a rank that leaves after the
// straggler has left, and for two instances one after the other under one
// stamp (a new World restarts comm ids at 0 under the same tracer).
func TestCollectiveFanIn(t *testing.T) {
	stamp := func(comm, seq int64, e trace.Event) trace.Event { e.A, e.B = comm, seq; return e }
	barrier := func(seq uint64, vtMS int64, rank int, kind trace.Kind) trace.Event {
		return stamp(1, 5, ev(seq, vtMS, rank, kind, "barrier"))
	}
	again := func(seq uint64, vtMS int64, rank int, kind trace.Kind) trace.Event {
		return stamp(0, 0, ev(seq, vtMS, rank, kind, "barrier"))
	}
	for _, c := range []struct {
		name             string
		events           []trace.Event
		compute, shuffle time.Duration
		byRank           map[int]time.Duration
	}{
		{
			// Rank 0 waited in the barrier for rank 1's late entry: the path
			// charges rank 1's 40ms of compute, not 40ms of rank-0 wait.
			name: "two ranks",
			events: []trace.Event{
				ev(1, 0, 0, trace.KindJobBegin, "j"),
				ev(2, 0, 1, trace.KindJobBegin, "j"),
				barrier(3, 5, 0, trace.KindCollBegin),
				ev(4, 40, 1, trace.KindTaskCommit, "map"),
				barrier(5, 40, 1, trace.KindCollBegin),
				barrier(6, 45, 0, trace.KindCollEnd),
				barrier(7, 45, 1, trace.KindCollEnd),
				ev(8, 50, 0, trace.KindJobEnd, "j"),
			},
			compute: 45 * time.Millisecond, shuffle: 5 * time.Millisecond,
			byRank: map[int]time.Duration{0: 10 * time.Millisecond, 1: 40 * time.Millisecond},
		},
		{
			// Straggler rank 1 enters last and leaves first; rank 2 leaves
			// after it and still waited for it, not for its own entry.
			name: "straggler leaves first",
			events: []trace.Event{
				ev(1, 0, 0, trace.KindJobBegin, "j"),
				ev(2, 0, 1, trace.KindJobBegin, "j"),
				ev(3, 0, 2, trace.KindJobBegin, "j"),
				barrier(4, 5, 0, trace.KindCollBegin),
				barrier(5, 6, 2, trace.KindCollBegin),
				ev(6, 40, 1, trace.KindTaskCommit, "map"),
				barrier(7, 40, 1, trace.KindCollBegin),
				barrier(8, 42, 1, trace.KindCollEnd),
				barrier(9, 44, 0, trace.KindCollEnd),
				barrier(10, 46, 2, trace.KindCollEnd),
				ev(11, 50, 2, trace.KindJobEnd, "j"),
			},
			compute: 44 * time.Millisecond, shuffle: 6 * time.Millisecond,
			byRank: map[int]time.Duration{1: 40 * time.Millisecond, 2: 10 * time.Millisecond},
		},
		{
			// Rank 1 straggles into the first instance and rank 0 into the
			// second; each exit binds to its own instance's straggler.
			name: "two instances under one stamp",
			events: []trace.Event{
				ev(1, 0, 0, trace.KindJobBegin, "j"),
				ev(2, 0, 1, trace.KindJobBegin, "j"),
				again(3, 2, 0, trace.KindCollBegin),
				ev(4, 10, 1, trace.KindTaskCommit, "map"),
				again(5, 10, 1, trace.KindCollBegin),
				again(6, 11, 0, trace.KindCollEnd),
				again(7, 11, 1, trace.KindCollEnd),
				again(8, 20, 1, trace.KindCollBegin),
				ev(9, 30, 0, trace.KindTaskCommit, "map"),
				again(10, 30, 0, trace.KindCollBegin),
				again(11, 31, 1, trace.KindCollEnd),
				again(12, 31, 0, trace.KindCollEnd),
				ev(13, 35, 1, trace.KindJobEnd, "j"),
			},
			compute: 33 * time.Millisecond, shuffle: 2 * time.Millisecond,
			byRank: map[int]time.Duration{0: 20 * time.Millisecond, 1: 15 * time.Millisecond},
		},
	} {
		rep, err := Analyze(c.events)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := sumCategories(rep); got != rep.Makespan {
			t.Fatalf("%s: category sum %v != makespan %v", c.name, got, rep.Makespan)
		}
		if rep.CrossEdges == 0 {
			t.Errorf("%s: path never hopped ranks; collective fan-in edge not taken", c.name)
		}
		if got := rep.ByCategory[CatCompute]; got != c.compute {
			t.Errorf("%s: compute = %v, want %v", c.name, got, c.compute)
		}
		if got := rep.ByCategory[CatShuffleWait]; got != c.shuffle {
			t.Errorf("%s: collective wait = %v, want %v", c.name, got, c.shuffle)
		}
		for r := 0; r < 3; r++ {
			if got := rep.ByRank[r]; got != c.byRank[r] {
				t.Errorf("%s: rank %d path time = %v, want %v", c.name, r, got, c.byRank[r])
			}
		}
	}
}

// TestRecoveryStageAttribution pins the Figure 3 mapping: each
// recovery.stage event charges its preceding interval to the matching
// recovery category, and RecoveryShare sums the four.
func TestRecoveryStageAttribution(t *testing.T) {
	events := []trace.Event{
		ev(1, 0, 0, trace.KindJobBegin, "j"),
		ev(2, 10, 0, trace.KindRecoveryStage, "init"),
		ev(3, 25, 0, trace.KindRecoveryStage, "load"),
		ev(4, 30, 0, trace.KindRecoveryStage, "skip"),
		ev(5, 50, 0, trace.KindRecoveryStage, "reprocess"),
		ev(6, 60, 0, trace.KindJobEnd, "j"),
	}
	rep, err := Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	want := map[Category]time.Duration{
		CatRecoveryInit:      10 * time.Millisecond,
		CatRecoveryLoad:      15 * time.Millisecond,
		CatRecoverySkip:      5 * time.Millisecond,
		CatRecoveryReprocess: 20 * time.Millisecond,
		CatCompute:           10 * time.Millisecond, // tail up to job.end
	}
	for c, d := range want {
		if got := rep.ByCategory[c]; got != d {
			t.Errorf("%s = %v, want %v", c, rep.ByCategory[c], d)
		}
	}
	if got, wantShare := rep.RecoveryShare(), 50.0/60.0; got < wantShare-1e-12 || got > wantShare+1e-12 {
		t.Errorf("RecoveryShare = %v, want %v", got, wantShare)
	}
}

// TestDropsMarkUnreliable: drop markers are excluded from the DAG but
// poison the report's reliability flag.
func TestDropsMarkUnreliable(t *testing.T) {
	events := []trace.Event{
		ev(1, 0, 0, trace.KindJobBegin, "j"),
		ev(2, 10, 0, trace.KindTaskCommit, "map"),
		ev(3, 20, 0, trace.KindJobEnd, "j"),
		{Seq: 4, VT: 20 * time.Millisecond, Rank: 0, Kind: trace.KindDrops, A: 12},
		{Seq: 5, VT: 20 * time.Millisecond, Rank: 1, Kind: trace.KindDrops, A: 5},
	}
	rep, err := Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped != 17 || !rep.Unreliable {
		t.Fatalf("Dropped=%d Unreliable=%v, want 17/true", rep.Dropped, rep.Unreliable)
	}
	var buf bytes.Buffer
	rep.Render(&buf, 0)
	if !strings.Contains(buf.String(), "UNRELIABLE") {
		t.Error("Render of an unreliable report does not shout UNRELIABLE")
	}
}

// TestCopierDrainEdge pins the drain fan-in: a phase-boundary drain stall
// binds to the rank's copier activity, surfacing copier time on the path.
func TestCopierDrainEdge(t *testing.T) {
	events := []trace.Event{
		ev(1, 0, 0, trace.KindJobBegin, "j"),
		ev(2, 80, 0, trace.KindTaskCommit, "map"),
		ev(3, 80, 0, trace.KindCopierBegin, "kv.0"),
		ev(4, 110, 0, trace.KindCopierEnd, "kv.0"),
		ev(5, 115, 0, trace.KindCkptStall, "drain"),
		ev(6, 120, 0, trace.KindJobEnd, "j"),
	}
	rep, err := Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	if got := sumCategories(rep); got != rep.Makespan {
		t.Fatalf("category sum %v != makespan %v", got, rep.Makespan)
	}
	if got := rep.ByCategory[CatCopierStall]; got != 30*time.Millisecond {
		t.Errorf("copier-stall = %v, want 30ms", got)
	}
	if got := rep.ByCategory[CatCkptDrain]; got != 5*time.Millisecond {
		t.Errorf("ckpt-drain = %v, want 5ms", got)
	}
	if rep.CrossEdges < 2 {
		t.Errorf("CrossEdges = %d, want >= 2 (main->copier->main hops)", rep.CrossEdges)
	}
}

// TestCompareRegression pins the -against gate: Compare flags the first
// category (canonical order) whose share grew past the threshold.
func TestCompareRegression(t *testing.T) {
	mk := func(cats map[Category]time.Duration) *Report {
		var total time.Duration
		for _, d := range cats {
			total += d
		}
		return &Report{Makespan: total, ByCategory: cats}
	}
	a := mk(map[Category]time.Duration{CatCompute: 90 * time.Millisecond, CatCkptWrite: 10 * time.Millisecond})
	b := mk(map[Category]time.Duration{
		CatCompute: 85 * time.Millisecond, CatCkptDrain: 5 * time.Millisecond, CatCopierStall: 30 * time.Millisecond,
	})
	deltas, first := Compare(a, b, 0.05)
	if len(deltas) != int(numCategories) {
		t.Fatalf("Compare returned %d deltas, want %d", len(deltas), numCategories)
	}
	if first == nil || first.Category != CatCopierStall {
		t.Fatalf("first regressed = %+v, want copier-stall", first)
	}
	if _, none := Compare(a, a, 0.05); none != nil {
		t.Fatalf("self-compare regressed: %+v", none)
	}
	// Tight threshold: ckpt-drain (earlier in canonical order) now trips first.
	if _, tight := Compare(a, b, 0.01); tight == nil || tight.Category != CatCkptDrain {
		t.Fatalf("tight-threshold first regressed = %+v, want ckpt-drain", tight)
	}
}

// TestAnalyzeRandomizedTelescoping is the property test backing the exact-
// attribution claim: for arbitrary (seeded) event soups with valid anchors,
// category totals always telescope to the makespan and the analyzer never
// panics, whatever the edge structure.
func TestAnalyzeRandomizedTelescoping(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	kinds := []trace.Kind{
		trace.KindPhaseBegin, trace.KindPhaseEnd, trace.KindTaskCommit,
		trace.KindCkptCommit, trace.KindSendEnd, trace.KindRecvEnd,
		trace.KindCollBegin, trace.KindCollEnd, trace.KindRecoveryBegin,
		trace.KindRecoveryEnd, trace.KindRecoveryStage, trace.KindCkptStall,
		trace.KindCopierBegin, trace.KindCopierEnd, trace.KindLBFit,
	}
	names := []string{"map", "reduce", "init", "load", "skip", "reprocess", "drain", "write", "barrier"}
	for trial := 0; trial < 50; trial++ {
		ranks := 1 + rng.Intn(6)
		n := 10 + rng.Intn(200)
		events := make([]trace.Event, 0, n+2*ranks)
		seq := uint64(0)
		vt := func(ms int64) time.Duration { return time.Duration(ms) * time.Millisecond }
		for r := 0; r < ranks; r++ {
			seq++
			events = append(events, trace.Event{Seq: seq, VT: 0, Rank: r, Kind: trace.KindJobBegin, Name: "j"})
		}
		now := int64(0)
		var flows []uint64
		for i := 0; i < n; i++ {
			now += int64(rng.Intn(5))
			seq++
			e := trace.Event{
				Seq:  seq,
				VT:   vt(now),
				Rank: rng.Intn(ranks),
				Kind: kinds[rng.Intn(len(kinds))],
				Name: names[rng.Intn(len(names))],
			}
			switch e.Kind {
			case trace.KindSendEnd:
				f := uint64(rng.Intn(40) + 1)
				e.Flow = f
				flows = append(flows, f)
			case trace.KindRecvEnd:
				if len(flows) > 0 {
					e.Flow = flows[rng.Intn(len(flows))]
				}
			case trace.KindCollBegin, trace.KindCollEnd:
				e.A, e.B = int64(rng.Intn(3)), int64(rng.Intn(4))
			}
			events = append(events, e)
		}
		seq++
		events = append(events, trace.Event{Seq: seq, VT: vt(now + 1), Rank: 0, Kind: trace.KindJobEnd, Name: "j"})

		rep, err := Analyze(events)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := sumCategories(rep); got != rep.Makespan {
			t.Fatalf("trial %d: category sum %v != makespan %v", trial, got, rep.Makespan)
		}
		var byRank time.Duration
		for _, d := range rep.ByRank {
			byRank += d
		}
		if byRank != rep.Makespan {
			t.Fatalf("trial %d: rank sum %v != makespan %v", trial, byRank, rep.Makespan)
		}
	}
}

// TestRenderDeterministic: two analyses of the same stream must render to
// identical bytes — the contract `make critpath-selftest` byte-compares.
func TestRenderDeterministic(t *testing.T) {
	events := []trace.Event{
		ev(1, 0, 0, trace.KindJobBegin, "j"),
		ev(2, 0, 1, trace.KindJobBegin, "j"),
		ev(3, 30, 1, trace.KindTaskCommit, "map"),
		ev(4, 40, 0, trace.KindCkptCommit, "kv.0"),
		ev(5, 50, 0, trace.KindJobEnd, "j"),
	}
	var a, b bytes.Buffer
	ra, err := Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	ra.Render(&a, 10)
	rb.Render(&b, 10)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("renders differ:\n--- A ---\n%s\n--- B ---\n%s", a.String(), b.String())
	}
}
