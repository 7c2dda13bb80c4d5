// End-to-end properties on a real traced failover run: exact telescoping
// attribution, Figure 3 consistency between path events and the runner's
// RankMetrics, byte-determinism across same-seed runs, and a makespan that
// dominates every rank's busy span.
package critpath_test

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
	"ftmrmpi/internal/failure"
	"ftmrmpi/internal/trace"
	"ftmrmpi/internal/trace/critpath"
	"ftmrmpi/internal/workloads"
)

// tracedFailover runs a small wordcount job with one kill injected during
// the given phase and returns the handle plus the attached tracer (rings
// deep enough that nothing drops).
func tracedFailover(t *testing.T, killRank int, killPhase core.Phase) (*core.Handle, *trace.Tracer) {
	t.Helper()
	cfg := cluster.Default()
	cfg.Nodes = 2
	cfg.PPN = 4
	clus := cluster.New(cfg)
	clus.Trace = trace.New(clus.Sim, 1<<20)

	p := workloads.DefaultWordcount()
	p.Chunks = 32
	p.Lines = 32
	p.WordsLine = 4
	p.Vocab = 500
	workloads.GenCorpus(clus, "in/job", p)

	spec := workloads.WordcountSpec("job", "in/job", 8, p)
	spec.Model = core.ModelDetectResumeWC
	spec.CkptInterval = 50
	spec.LoadBalance = true

	h := core.RunSingle(clus, spec)
	failure.KillOnPhase(h, killRank, killPhase, time.Millisecond)
	clus.Sim.Run()

	res := h.Result()
	if res == nil || res.Aborted {
		t.Fatalf("failover job did not complete: %+v", res)
	}
	for r := range clus.Trace.Ranks() {
		if d := clus.Trace.Dropped(r); d != 0 {
			t.Fatalf("rank %d dropped %d events; enlarge the test ring", r, d)
		}
	}
	return h, clus.Trace
}

// TestCritPathWordcountFailover analyzes a real failover trace and pins the
// structural invariants the report's consumers rely on.
func TestCritPathWordcountFailover(t *testing.T) {
	h, tr := tracedFailover(t, 2, core.PhaseMap)
	rep, err := critpath.Analyze(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unreliable || rep.Dropped != 0 {
		t.Fatalf("clean run reported unreliable (%d dropped)", rep.Dropped)
	}
	if rep.JobID != "job" || rep.Makespan <= 0 {
		t.Fatalf("anchors: job %q makespan %v", rep.JobID, rep.Makespan)
	}

	// Exact telescoping: every attribution table sums to the makespan in
	// integer nanoseconds — no epsilon.
	var byCat, byRank, byPhase time.Duration
	for _, d := range rep.ByCategory {
		byCat += d
	}
	for _, d := range rep.ByRank {
		byRank += d
	}
	for _, d := range rep.ByPhase {
		byPhase += d
	}
	if byCat != rep.Makespan || byRank != rep.Makespan || byPhase != rep.Makespan {
		t.Fatalf("sums: cat %v rank %v phase %v, makespan %v", byCat, byRank, byPhase, rep.Makespan)
	}

	// Segments tile [Start, End] without gaps or overlap.
	at := rep.Start
	for i, s := range rep.Segments {
		if s.From != at {
			t.Fatalf("segment %d starts at %v, previous ended at %v", i, s.From, at)
		}
		if s.To < s.From {
			t.Fatalf("segment %d runs backwards: %v-%v", i, s.From, s.To)
		}
		at = s.To
	}
	if at != rep.End {
		t.Fatalf("last segment ends at %v, want %v", at, rep.End)
	}

	// A failover run must show recovery on the path, and the path must hop
	// ranks at least once (the dead rank's work moved elsewhere).
	if rep.RecoveryShare() <= 0 {
		t.Error("failover run shows zero recovery on the critical path")
	}
	if rep.CrossEdges == 0 {
		t.Error("failover path never crossed ranks or threads")
	}

	// The critical path dominates every rank's compute-bearing span.
	sk := trace.Summarize(tr.Events()).Skew()
	if sk.MaxBusy > rep.Makespan {
		t.Errorf("rank %d busy %v exceeds makespan %v", sk.SlowestRank, sk.MaxBusy, rep.Makespan)
	}

	// Figure 3 consistency: summed recovery.stage events on the trace equal
	// the runner's RecoveryBreakdown counters, bucket by bucket, exactly.
	want := core.RecoveryBreakdown{}
	for _, m := range h.Result().Ranks {
		if m == nil {
			continue
		}
		want.Init += m.Recovery.Init
		want.LoadCkpt += m.Recovery.LoadCkpt
		want.Skip += m.Recovery.Skip
		want.Reprocess += m.Recovery.Reprocess
	}
	got := core.RecoveryBreakdown{}
	for _, ev := range tr.Events() {
		if ev.Kind != trace.KindRecoveryStage {
			continue
		}
		d := time.Duration(ev.A)
		switch ev.Name {
		case "init":
			got.Init += d
		case "load":
			got.LoadCkpt += d
		case "skip":
			got.Skip += d
		case "reprocess":
			got.Reprocess += d
		default:
			t.Errorf("unknown recovery.stage name %q", ev.Name)
		}
	}
	if got != want {
		t.Errorf("recovery.stage sums %+v != RankMetrics breakdown %+v", got, want)
	}
	if want.Total() == 0 {
		t.Error("failover run accumulated zero recovery time in RankMetrics")
	}
}

// TestCritPathDeterministic reruns the same-seed failover twice and demands
// byte-identical rendered reports — the same guarantee `make
// critpath-selftest` checks against the committed golden file.
func TestCritPathDeterministic(t *testing.T) {
	render := func() []byte {
		_, tr := tracedFailover(t, 2, core.PhaseMap)
		rep, err := critpath.Analyze(tr.Events())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rep.Render(&buf, 10)
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed renders differ:\n--- A ---\n%s\n--- B ---\n%s", a, b)
	}

	// And the composition self-diff is clean at any threshold.
	_, tr := tracedFailover(t, 2, core.PhaseMap)
	rep, err := critpath.Analyze(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if critpath.RenderCompare(&buf, rep, rep, 0) {
		t.Fatalf("self-compare regressed:\n%s", buf.String())
	}
}

// TestCritPathOfSavedTraceEqualsLive: a trace written to JSONL and read back
// holds every event at its exact nanosecond, so the critical path of the file
// is the critical path of the run — what `ftmr-trace critpath` prints for a
// saved trace is what the live analysis would have.
func TestCritPathOfSavedTraceEqualsLive(t *testing.T) {
	_, tr := tracedFailover(t, 2, core.PhaseMap)
	live, err := critpath.Analyze(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := tr.WriteJSONL(&file); err != nil {
		t.Fatal(err)
	}
	events, rr, err := trace.ReadJSONL(&file)
	if err != nil || !rr.Clean() {
		t.Fatalf("read back: %v / %v", err, rr.Err())
	}
	if !slices.Equal(events, tr.Events()) {
		t.Fatal("the events read back are not the events recorded")
	}
	saved, err := critpath.Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(saved, live) {
		t.Fatalf("critical path of the saved trace differs from the live one:\nsaved %+v\nlive  %+v", saved, live)
	}
}

// TestAnalyzeNeitherCopiesNorModifies is Analyze's memory gate (make
// alloc-gate): a Seq-ordered stream without drop markers, which is what
// Tracer.Events returns, is walked where it lies, while the same events in
// another order are copied to be sorted; the copy is the difference, so the
// ordered stream must allocate at least half a copy less (the rest of what
// Analyze allocates is the same for both). Neither stream is modified, and
// both yield the same report.
func TestAnalyzeNeitherCopiesNorModifies(t *testing.T) {
	_, tr := tracedFailover(t, 3, core.PhaseMap)
	ordered := tr.Events()
	reversed := slices.Clone(ordered)
	slices.Reverse(reversed)
	var reps [2]*critpath.Report
	var allocs [2]uint64
	for i, events := range [][]trace.Event{ordered, reversed} {
		before := slices.Clone(events)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rep, err := critpath.Analyze(events)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(events, before) {
			t.Fatalf("stream %d: Analyze modified its input", i)
		}
		reps[i], allocs[i] = rep, m1.TotalAlloc-m0.TotalAlloc
	}
	if !reflect.DeepEqual(reps[0], reps[1]) {
		t.Fatalf("the Seq-ordered and the reversed stream give different reports")
	}
	copyBytes := uint64(len(ordered)) * uint64(unsafe.Sizeof(trace.Event{}))
	t.Logf("%d events: in order %d B, reversed %d B (a copy is %d B)", len(ordered), allocs[0], allocs[1], copyBytes)
	if allocs[0]+copyBytes/2 > allocs[1] {
		t.Errorf("the Seq-ordered stream allocated %d B, want at least half a copy (%d B) under the reversed one's %d B",
			allocs[0], copyBytes/2, allocs[1])
	}
}
