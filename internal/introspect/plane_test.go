// White-box tests for capture classification, cycle detection, the wire
// format's damage tolerance, and the wall-clock watchdog (driven
// synchronously through check()).
package introspect

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"ftmrmpi/internal/vtime"
)

// fakeWorld is a hand-built WorldView for capture tests.
type fakeWorld struct {
	n     int
	dead  map[int]bool
	procs map[int]*vtime.Proc
	waits map[int]Wait
}

func (f *fakeWorld) Size() int                  { return f.n }
func (f *fakeWorld) RankAlive(w int) bool       { return !f.dead[w] }
func (f *fakeWorld) RankProc(w int) *vtime.Proc { return f.procs[w] }
func (f *fakeWorld) RankWait(w int) (Wait, bool) {
	wt, ok := f.waits[w]
	return wt, ok
}

// meeting is rank-inside-a-gathering-meeting state: op on communicator 0,
// waiting for the missing members.
func meeting(op string, missing ...int) Wait {
	return Wait{Op: op, Seq: 0, Src: NoValue, Tag: NoValue, Missing: missing}
}

// blockedWorld builds a 2-rank world where rank 0 is inside a barrier that
// rank 1 has not entered and rank 1 is runnable, with never-started procs
// standing in for the live ones.
func blockedWorld(sim *vtime.Sim) *fakeWorld {
	return &fakeWorld{
		n: 2,
		procs: map[int]*vtime.Proc{
			0: sim.Spawn("w0", func(p *vtime.Proc) { p.Park() }),
			1: sim.Spawn("w1", func(p *vtime.Proc) { p.Park() }),
		},
		waits: map[int]Wait{0: meeting("barrier", 1)},
	}
}

func TestCaptureClassification(t *testing.T) {
	sim := vtime.NewSim()
	pl := New(sim, time.Millisecond)
	fw := blockedWorld(sim)
	fw.dead = map[int]bool{}
	pl.AttachWorld(fw)

	pl.capture(false)
	snaps := pl.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("%d snapshots, want 1", len(snaps))
	}
	ranks := snaps[0].Ranks
	if ranks[0].State != StateColl || ranks[0].Op != "barrier" || ranks[0].Seq != 0 || ranks[0].PostedUS != 0 {
		t.Errorf("rank 0 = %+v, want inside barrier seq 0 since vt 0", ranks[0])
	}
	if ranks[1].State != StateRunning {
		t.Errorf("rank 1 state = %q, want running (start event pending)", ranks[1].State)
	}
	if len(snaps[0].Edges) != 1 || snaps[0].Edges[0] != (Edge{From: 0, To: 1, Why: WhyColl}) {
		t.Errorf("edges = %+v, want the single meeting edge 0->1", snaps[0].Edges)
	}
	if got := pl.Stalls(); len(got) != 0 {
		t.Errorf("stalls = %+v for an acyclic graph", got)
	}

	// A receive is reported, and draws no edge.
	fw.waits[1] = Wait{Seq: NoValue, Src: AnySource, Tag: 3, Since: time.Millisecond}
	pl.capture(false)
	snap := pl.Snapshots()[1]
	if rs := snap.Ranks[1]; rs.State != StateRecv || rs.Src != AnySource || rs.Tag != 3 || rs.PostedUS != 1000 {
		t.Errorf("rank 1 = %+v, want a receive from any source, tag 3, since 1000us", rs)
	}
	if len(snap.Edges) != 1 || snap.Seq != 1 {
		t.Errorf("snapshot %d edges = %+v, want snapshot 1 with the meeting edge only", snap.Seq, snap.Edges)
	}

	// A dead rank is edge-free even with a stale wait.
	fw.dead[0] = true
	pl.capture(false)
	last := pl.Snapshots()[2]
	if last.Ranks[0].State != StateDead || len(last.Edges) != 0 {
		t.Errorf("rank 0 state = %q, edges %+v after death, want dead and none", last.Ranks[0].State, last.Edges)
	}
}

// TestCyclePersistenceRule: a live capture must not report a one-shot cycle;
// only the same membership on two consecutive captures (or a Final capture)
// raises the report.
func TestCyclePersistenceRule(t *testing.T) {
	sim := vtime.NewSim()
	pl := New(sim, time.Millisecond)
	fw := blockedWorld(sim)
	// Close the loop: rank 1 is inside a different meeting rank 0 never
	// enters.
	fw.waits[1] = meeting("alltoallv", 0)
	pl.AttachWorld(fw)

	pl.capture(false)
	if got := pl.Stalls(); len(got) != 0 {
		t.Fatalf("one-shot cycle reported on first sight: %+v", got)
	}
	pl.capture(false)
	stalls := pl.Stalls()
	if len(stalls) != 1 || stalls[0].Reason != ReasonDeadlock {
		t.Fatalf("stalls = %+v, want one deadlock after the cycle persisted", stalls)
	}
	if len(stalls[0].Cycle) != 2 {
		t.Fatalf("cycle = %v, want both ranks", stalls[0].Cycle)
	}
}

func TestFindCycleDeterministic(t *testing.T) {
	edges := []Edge{
		{From: 0, To: 3, Why: WhyColl},
		{From: 1, To: 2, Why: WhyColl},
		{From: 2, To: 1, Why: WhyColl},
		{From: 3, To: 2, Why: WhyColl},
	}
	want := []int{1, 2}
	for i := 0; i < 10; i++ {
		got := findCycle(4, edges)
		if len(got) != 2 || !sameCycle(got, want) {
			t.Fatalf("iteration %d: cycle = %v, want %v", i, got, want)
		}
	}
	if c := findCycle(4, edges[:2]); c != nil {
		t.Fatalf("cycle = %v on an acyclic graph", c)
	}
}

func TestReadJSONLDamageTolerance(t *testing.T) {
	var buf bytes.Buffer
	sim := vtime.NewSim()
	pl := New(sim, time.Millisecond)
	pl.AttachWorld(blockedWorld(sim))
	pl.capture(false)
	if err := pl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// Damage the stream: garbage, an unknown kind, and a torn tail.
	buf.WriteString("{not json\n")
	buf.WriteString(`{"kind":"mystery"}` + "\n")
	buf.WriteString(`{"kind":"snapshot","vt_us":12`) // torn mid-object

	lines, rr, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("damage must not hard-fail the read: %v", err)
	}
	if rr.Records != 1 || len(lines) != 1 {
		t.Fatalf("records = %d (%d lines), want the one intact snapshot", rr.Records, len(lines))
	}
	if rr.BadLines != 3 || rr.Clean() || rr.Err() == nil {
		t.Fatalf("bad = %d clean = %v, want 3 counted damaged lines", rr.BadLines, rr.Clean())
	}
	if !rr.Header || rr.Schema != SchemaVersion {
		t.Fatalf("header = %v schema = %d", rr.Header, rr.Schema)
	}
}

func TestReadJSONLSchemaTooNew(t *testing.T) {
	in := strings.NewReader(`{"format":"ftmr-introspect","schema":99}` + "\n")
	if _, _, err := ReadJSONL(in); err == nil {
		t.Fatal("a schema newer than the reader must hard-fail")
	}
}

// TestWatchdogFiresOnceOnNoProgress drives the watchdog synchronously: the
// first poll baselines, a poll after progress stays quiet, and two polls
// with an unchanged beacon raise exactly one no-progress report built from
// the last snapshot's blocked ranks.
func TestWatchdogFiresOnceOnNoProgress(t *testing.T) {
	sim := vtime.NewSim()
	pl := New(sim, time.Millisecond)
	pl.AttachWorld(blockedWorld(sim))
	var human bytes.Buffer
	wd := &Watchdog{pl: pl, out: &human, stop: make(chan struct{}), done: make(chan struct{})}

	pl.capture(false)
	if wd.check() {
		t.Fatal("first poll must only baseline")
	}
	pl.capture(false) // progress: beacon advances
	if wd.check() {
		t.Fatal("a poll after progress must not fire")
	}
	if !wd.check() {
		t.Fatal("second poll without progress must fire")
	}
	stalls := pl.Stalls()
	if len(stalls) != 1 || stalls[0].Reason != ReasonNoProgress {
		t.Fatalf("stalls = %+v, want one no-progress report", stalls)
	}
	if len(stalls[0].Members) != 1 || stalls[0].Members[0].Rank != 0 {
		t.Fatalf("members = %+v, want the blocked rank 0 only", stalls[0].Members)
	}
	if !strings.Contains(human.String(), "no virtual-time progress") {
		t.Fatalf("human report = %q", human.String())
	}
	if !wd.check() {
		t.Fatal("a fired watchdog must stay fired")
	}
	if got := pl.Stalls(); len(got) != 1 {
		t.Fatalf("repeated polls duplicated the report: %+v", got)
	}

	// The journal (and thus WriteJSONL) carries the watchdog report.
	var out bytes.Buffer
	if err := pl.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	lines, rr, err := ReadJSONL(&out)
	if err != nil || !rr.Clean() {
		t.Fatalf("ReadJSONL: %v / %v", err, rr.Err())
	}
	_, decStalls := SplitLines(lines)
	if len(decStalls) != 1 || decStalls[0].Reason != ReasonNoProgress {
		t.Fatalf("decoded stalls = %+v", decStalls)
	}
}

// TestNilPlaneAndProbe locks down the disabled path: every entry point must
// be a no-op on nil receivers (the one-branch disabled-cost contract).
func TestNilPlaneAndProbe(t *testing.T) {
	var pl *Plane
	pl.Start()
	pl.Final()
	pl.AttachWorld(nil)
	pl.StreamJSONL(io.Discard)
	if err := pl.FlushStream(); err != nil {
		t.Fatal(err)
	}
	if pl.RankProbe(3) != nil {
		t.Fatal("nil plane must hand out nil probes")
	}
	if pl.Snapshots() != nil || pl.Stalls() != nil {
		t.Fatal("nil plane must report nothing")
	}
	if wd := pl.StartWatchdog(time.Second, io.Discard); wd != nil {
		t.Fatal("nil plane must not arm a watchdog")
	}
	var wd *Watchdog
	wd.Stop()

	var rp *RankProbe
	rp.SetPhase("map")
	rp.SetTask(1)
	rp.EnterDrain()
	rp.ExitDrain()
}
