package trace

import (
	"testing"
	"time"
)

func mkEvent(seq uint64, vt time.Duration, rank int, kind Kind, name string, a, b, c int64) Event {
	return Event{Seq: seq, VT: vt, Rank: rank, Kind: kind, Name: name, A: a, B: b, C: c}
}

func TestDiffIdenticalReportsNothing(t *testing.T) {
	evs := []Event{
		mkEvent(1, 0, 0, KindPhaseBegin, "map", 0, 0, 0),
		mkEvent(2, 0, 1, KindPhaseBegin, "map", 0, 0, 0),
		mkEvent(3, 10*time.Millisecond, 0, KindPhaseEnd, "map", 0, 0, 0),
		mkEvent(4, 12*time.Millisecond, 1, KindPhaseEnd, "map", 0, 0, 0),
	}
	rep := Diff(evs, evs, DiffOptions{})
	if rep.Diverged() {
		t.Fatalf("identical traces diverged: %+v", rep.Divergences)
	}
	if rep.First() != nil {
		t.Fatal("First() non-nil on identical traces")
	}
	if rep.Aligned != 4 || rep.Streams != 4 {
		t.Errorf("aligned=%d streams=%d, want 4/4", rep.Aligned, rep.Streams)
	}
}

// Benign cross-rank reordering — same per-rank streams, different global Seq
// interleaving — must not register as divergence. This is the reason the
// alignment keys on (rank, kind, occurrence), not on Seq.
func TestDiffToleratesCrossRankReordering(t *testing.T) {
	a := []Event{
		mkEvent(1, 0, 0, KindPhaseBegin, "map", 0, 0, 0),
		mkEvent(2, 0, 1, KindPhaseBegin, "map", 0, 0, 0),
	}
	b := []Event{
		mkEvent(1, 0, 1, KindPhaseBegin, "map", 0, 0, 0),
		mkEvent(2, 0, 0, KindPhaseBegin, "map", 0, 0, 0),
	}
	if rep := Diff(a, b, DiffOptions{}); rep.Diverged() {
		t.Fatalf("cross-rank reorder flagged: %+v", rep.Divergences)
	}
}

func TestDiffFlagsVTAndAttrsAndMissing(t *testing.T) {
	a := []Event{
		mkEvent(1, 0, 0, KindPhaseBegin, "map", 0, 0, 0),
		mkEvent(2, 10*time.Millisecond, 0, KindPhaseEnd, "map", 0, 0, 0),
		mkEvent(3, 11*time.Millisecond, 0, KindCkptCommit, "map/t0", 100, 1, 0),
		mkEvent(4, 12*time.Millisecond, 0, KindTaskCommit, "map", 0, 5, 0),
	}
	b := []Event{
		mkEvent(1, 0, 0, KindPhaseBegin, "map", 0, 0, 0),
		mkEvent(2, 14*time.Millisecond, 0, KindPhaseEnd, "map", 0, 0, 0),        // vt moved
		mkEvent(3, 11*time.Millisecond, 0, KindCkptCommit, "map/t0", 200, 1, 0), // payload changed
		// task.commit missing entirely
	}
	rep := Diff(a, b, DiffOptions{})
	counts := rep.CountByReason()
	if counts[DivergeVT] != 1 || counts[DivergeAttrs] != 1 || counts[DivergeMissingB] != 1 {
		t.Fatalf("reason counts = %v, want one each of vt/attrs/missing-in-b", counts)
	}
	first := rep.First()
	if first == nil || first.Reason != DivergeVT || first.Kind != KindPhaseEnd {
		t.Fatalf("First() = %+v, want the vt split at phase.end (earliest vt)", first)
	}
	if first.VTDelta != 4*time.Millisecond {
		t.Errorf("VTDelta = %v, want 4ms", first.VTDelta)
	}
	if rep.ExtraA != 1 || rep.ExtraB != 0 {
		t.Errorf("extra counts A=%d B=%d, want 1/0", rep.ExtraA, rep.ExtraB)
	}
}

func TestDiffVTTolerance(t *testing.T) {
	a := []Event{mkEvent(1, 10*time.Millisecond, 0, KindPhaseEnd, "map", 0, 0, 0)}
	b := []Event{mkEvent(1, 11*time.Millisecond, 0, KindPhaseEnd, "map", 0, 0, 0)}
	if rep := Diff(a, b, DiffOptions{VTTol: time.Millisecond}); rep.Diverged() {
		t.Fatalf("1ms delta flagged under 1ms tolerance: %+v", rep.Divergences)
	}
	if rep := Diff(a, b, DiffOptions{VTTol: 999 * time.Microsecond}); !rep.Diverged() {
		t.Fatal("1ms delta not flagged under 999µs tolerance")
	}
}

// The committed divergence fixtures: div_b is div_a with rank 1's map phase
// stretched by 3ms (and everything after it shifted) plus a dropped
// task.commit. The diff must localize the regression to rank 1's map end
// and the delta table must show +3ms on exactly that (rank, phase) cell.
func TestDiffFixturesLocalizeInjectedDivergence(t *testing.T) {
	a, rra, err := readFixture("testdata/div_a.jsonl")
	if err != nil || !rra.Clean() {
		t.Fatalf("div_a: %v / %+v", err, rra)
	}
	b, rrb, err := readFixture("testdata/div_b.jsonl")
	if err != nil || !rrb.Clean() {
		t.Fatalf("div_b: %v / %+v", err, rrb)
	}

	rep := Diff(a, b, DiffOptions{})
	if !rep.Diverged() {
		t.Fatal("fixtures with injected divergence reported identical")
	}
	first := rep.First()
	if first.Rank != 1 || first.Kind != KindPhaseEnd || first.Reason != DivergeVT {
		t.Fatalf("First() = %s, want rank 1 phase.end vt divergence", first)
	}
	if first.VTDelta != 3*time.Millisecond {
		t.Errorf("first VTDelta = %v, want +3ms", first.VTDelta)
	}
	if c := rep.CountByReason(); c[DivergeMissingB] != 1 {
		t.Errorf("dropped task.commit not reported: %v", c)
	}

	var rank1Map *PhaseDelta
	for i := range rep.PhaseDeltas {
		pd := &rep.PhaseDeltas[i]
		if pd.Rank == 1 && pd.Phase == PhaseNameMap {
			rank1Map = pd
		} else if pd.Delta() != 0 {
			t.Errorf("unexpected phase delta at rank %d %s: %v", pd.Rank, pd.Phase, pd.Delta())
		}
	}
	if rank1Map == nil || rank1Map.Delta() != 3*time.Millisecond {
		t.Fatalf("rank 1 map delta = %+v, want +3ms", rank1Map)
	}
}

// Self-diff of the v2 golden fixture must be clean — the `make trace-selftest`
// target runs the same check through the CLI.
func TestDiffGoldenV2SelfIsClean(t *testing.T) {
	evs, rr, err := readFixture("testdata/golden_v2.jsonl")
	if err != nil || !rr.Clean() {
		t.Fatalf("golden_v2: %v / %+v", err, rr)
	}
	if rep := Diff(evs, evs, DiffOptions{}); rep.Diverged() {
		t.Fatalf("self-diff diverged: %+v", rep.Divergences)
	}
}
