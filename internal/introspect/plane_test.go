// White-box tests for capture classification, cycle detection and the wire
// format's damage tolerance.
package introspect

import (
	"bytes"
	"io"
	"math/rand/v2"
	"slices"
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
	if w := snaps[0].Waits; len(w) != 1 || !slices.Equal(w[0].From, []int{0}) || !slices.Equal(w[0].To, []int{1}) {
		t.Errorf("waits = %+v, want the single meeting set 0 -> 1", w)
	}
	if got := pl.Stalls(); len(got) != 0 {
		t.Errorf("stalls = %+v for an acyclic graph", got)
	}

	// A receive is reported, and draws no edge.
	fw.waits[1] = Wait{Seq: NoValue, Src: 0, Tag: 3, Since: time.Millisecond}
	pl.capture(false)
	snap := pl.Snapshots()[1]
	if rs := snap.Ranks[1]; rs.State != StateRecv || rs.Src != 0 || rs.Tag != 3 || rs.PostedUS != 1000 {
		t.Errorf("rank 1 = %+v, want a receive from world rank 0, tag 3, since 1000us", rs)
	}
	if len(snap.Waits) != 1 || snap.Seq != 1 {
		t.Errorf("snapshot %d waits = %+v, want snapshot 1 with the meeting set only", snap.Seq, snap.Waits)
	}

	// A dead rank is edge-free even with a stale wait.
	fw.dead[0] = true
	pl.capture(false)
	last := pl.Snapshots()[2]
	if last.Ranks[0].State != StateDead || len(last.Waits) != 0 {
		t.Errorf("rank 0 state = %q, waits %+v after death, want dead and none", last.Ranks[0].State, last.Waits)
	}
}

func TestFindCycleDeterministic(t *testing.T) {
	waits := []WaitSet{
		{From: []int{0}, To: []int{3}},
		{From: []int{1, 3}, To: []int{2}},
		{From: []int{2}, To: []int{1}},
	}
	want := []int{2, 1} // 0 -> 3 -> 2 -> 1 -> 2
	for i := 0; i < 10; i++ {
		got := findCycle(4, waits)
		if !slices.Equal(got, want) {
			t.Fatalf("iteration %d: cycle = %v, want %v", i, got, want)
		}
	}
	if c := findCycle(4, waits[:2]); c != nil {
		t.Fatalf("cycle = %v on an acyclic graph", c)
	}
}

// refFindCycle is the reference detector findCycle must agree with: a DFS
// over the expanded wait-for edges sorted by (From, To), roots ascending.
func refFindCycle(n int, waits []WaitSet) []int {
	var edges [][2]int
	for _, ws := range waits {
		for _, from := range ws.From {
			for _, to := range ws.To {
				edges = append(edges, [2]int{from, to})
			}
		}
	}
	slices.SortFunc(edges, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	color := make([]int, n) // 0 white, 1 gray, 2 black
	var stack []int
	var dfs func(u int) []int
	dfs = func(u int) []int {
		color[u] = 1
		stack = append(stack, u)
		for _, e := range edges {
			if e[0] != u {
				continue
			}
			switch color[e[1]] {
			case 1:
				return slices.Clone(stack[slices.Index(stack, e[1]):])
			case 0:
				if cycle := dfs(e[1]); cycle != nil {
					return cycle
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[u] = 2
		return nil
	}
	for u := range n {
		if color[u] == 0 {
			if cycle := dfs(u); cycle != nil {
				return cycle
			}
		}
	}
	return nil
}

// randomWaits draws a wait-set graph the way capture builds one: ranks
// ascending, each dead or idle (waiting through no set), an entrant of a
// shared meeting (a multi-entrant set), or waiting on a list of its own (a
// singleton set), merged by joinWaits.
func randomWaits(rng *rand.Rand, n int) []WaitSet {
	pick := func() []int {
		var to []int
		for r := range n {
			if rng.IntN(4) == 0 {
				to = append(to, r)
			}
		}
		if to == nil {
			to = []int{rng.IntN(n)}
		}
		return to
	}
	shared := [][]int{pick(), pick()}
	var waits []WaitSet
	for r := range n {
		switch rng.IntN(5) {
		case 0, 1: // dead or idle
		case 2:
			waits = joinWaits(waits, r, pick())
		default:
			waits = joinWaits(waits, r, shared[rng.IntN(len(shared))])
		}
	}
	return waits
}

// TestFindCycleMatchesEdgeDFS: on seeded random wait-set graphs, findCycle
// returns exactly the cycle (membership and order) the reference DFS over
// the expanded edges does, or nil when it does.
func TestFindCycleMatchesEdgeDFS(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 1))
	cyclic, multi := 0, 0
	for trial := range 600 {
		n := 1 + rng.IntN(12)
		waits := randomWaits(rng, n)
		got, want := findCycle(n, waits), refFindCycle(n, waits)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d, n=%d, waits %+v: cycle = %v, want %v", trial, n, waits, got, want)
		}
		if want != nil {
			cyclic++
		}
		for _, ws := range waits {
			if len(ws.From) > 1 {
				multi++
				break
			}
		}
	}
	if cyclic < 100 || cyclic > 500 || multi < 100 {
		t.Fatalf("%d of 600 graphs cyclic, %d with a multi-entrant set: the generator lost its mix", cyclic, multi)
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
	if rr.Lines != 5 {
		t.Fatalf("lines = %d, want the header, the snapshot and 3 damaged lines", rr.Lines)
	}
}

// A stream of a newer schema, or of schema 1 (whose lines state the
// wait-for graph as edges), is unreadable input, not a stream without waits.
func TestReadJSONLSchemaTooNew(t *testing.T) {
	for _, in := range []string{
		`{"format":"ftmr-introspect","schema":99}` + "\n",
		`{"format":"ftmr-introspect","schema":1}` + "\n" +
			`{"kind":"snapshot","vt_us":10000,"seq":0,"ranks":[],"edges":[{"from":0,"to":2,"why":"coll"}]}` + "\n",
	} {
		if _, _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%.40q... read, want a hard failure", in)
		}
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

	var rp *RankProbe
	rp.SetPhase("map")
	rp.SetTask(1)
	rp.EnterDrain()
	rp.ExitDrain()
}
