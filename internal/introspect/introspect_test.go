// Synthetic-deadlock fixtures for the introspection plane: a two-rank
// crossed blocking receive and a collective with a missing participant. Both
// must produce a stall report naming the exact cycle membership and wait
// reasons; completing runs must produce none.
package introspect_test

import (
	"bytes"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/mpi"
)

func inspCluster(nodes, ppn int) *cluster.Cluster {
	cfg := cluster.Default()
	cfg.Nodes = nodes
	cfg.PPN = ppn
	clus := cluster.New(cfg)
	clus.Introspect = introspect.New(clus.Sim, 10*time.Millisecond)
	return clus
}

func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

// TestCrossedRecvDeadlock posts a classic crossed blocking receive: each of
// two ranks receives from the other before either sends. The run must drain
// with both ranks stranded, and the Final capture must report exactly the
// cycle {0, 1} with recv wait reasons naming the peer.
func TestCrossedRecvDeadlock(t *testing.T) {
	clus := inspCluster(2, 1)
	pl := clus.Introspect
	mpi.Launch(clus, 2, func(c *mpi.Comm) {
		peer := 1 - c.Rank()
		if _, err := c.Recv(peer, 7); err != nil { // blocks forever
			t.Errorf("rank %d: recv: %v", c.Rank(), err)
			return
		}
		_ = c.Send(peer, 7, []byte("never sent"))
	})
	pl.Start()
	clus.Sim.Run()
	pl.Final()

	if st := clus.Sim.Stranded(); len(st) != 2 {
		t.Fatalf("stranded = %v, want both ranks", st)
	}
	stalls := pl.Stalls()
	if len(stalls) == 0 {
		t.Fatal("no stall report for a crossed-recv deadlock")
	}
	rep := stalls[len(stalls)-1]
	if rep.Reason != introspect.ReasonDeadlock {
		t.Fatalf("reason = %q, want %q", rep.Reason, introspect.ReasonDeadlock)
	}
	if got := sortedCopy(rep.Cycle); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("cycle = %v, want exactly [0 1]", rep.Cycle)
	}
	want := map[int]string{0: "recv src=w1 tag=7 comm=0", 1: "recv src=w0 tag=7 comm=0"}
	if len(rep.Members) != 2 {
		t.Fatalf("members = %+v, want 2", rep.Members)
	}
	for _, m := range rep.Members {
		if m.Reason != want[m.Rank] {
			t.Errorf("rank %d reason = %q, want %q", m.Rank, m.Reason, want[m.Rank])
		}
	}
	if rep.OldestUS < 0 {
		t.Errorf("OldestUS = %v, want the blocked-since time", rep.OldestUS)
	}

	// The report must survive the wire format round trip.
	var buf bytes.Buffer
	if err := pl.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	lines, rr, err := introspect.ReadJSONL(&buf)
	if err != nil || !rr.Clean() {
		t.Fatalf("ReadJSONL: %v / %v", err, rr.Err())
	}
	_, decStalls := introspect.SplitLines(lines)
	if len(decStalls) != len(stalls) {
		t.Fatalf("decoded %d stalls, want %d", len(decStalls), len(stalls))
	}
}

// TestCollectiveMissingParticipant runs a three-rank barrier where rank 2
// never joins: it blocks in a receive from rank 0 instead. Straggler edges
// point the barrier participants at rank 2 and rank 2's receive points back
// at rank 0, so the reported cycle must be exactly {0, 2} with a collective
// wait reason on rank 0 and a recv reason on rank 2.
func TestCollectiveMissingParticipant(t *testing.T) {
	clus := inspCluster(3, 1)
	pl := clus.Introspect
	mpi.Launch(clus, 3, func(c *mpi.Comm) {
		if c.Rank() == 2 {
			if _, err := c.Recv(0, 9); err != nil { // rank 0 never sends
				t.Errorf("rank 2: recv: %v", err)
			}
			return
		}
		if err := c.Barrier(); err != nil { // rank 2 never joins
			t.Errorf("rank %d: barrier: %v", c.Rank(), err)
		}
	})
	pl.Start()
	clus.Sim.Run()
	pl.Final()

	stalls := pl.Stalls()
	if len(stalls) == 0 {
		t.Fatal("no stall report for a missing collective participant")
	}
	rep := stalls[len(stalls)-1]
	if rep.Reason != introspect.ReasonDeadlock {
		t.Fatalf("reason = %q, want %q", rep.Reason, introspect.ReasonDeadlock)
	}
	if got := sortedCopy(rep.Cycle); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("cycle = %v, want exactly [0 2]", rep.Cycle)
	}
	reasons := map[int]string{}
	for _, m := range rep.Members {
		reasons[m.Rank] = m.Reason
	}
	if !strings.HasPrefix(reasons[0], "collective barrier comm=0 seq=0") {
		t.Errorf("rank 0 reason = %q, want a barrier straggler wait", reasons[0])
	}
	if reasons[2] != "recv src=w0 tag=9 comm=0" {
		t.Errorf("rank 2 reason = %q, want the blocking recv from w0", reasons[2])
	}

	// The snapshot's wait-for graph must include the straggler edges from
	// both participants into rank 2.
	snaps := pl.Snapshots()
	last := snaps[len(snaps)-1]
	hasEdge := func(from, to int, why string) bool {
		for _, e := range last.Edges {
			if e.From == from && e.To == to && (why == "" || e.Why == why) {
				return true
			}
		}
		return false
	}
	// The barrier receives no message: both edges come from the straggler
	// rule.
	if !hasEdge(0, 2, introspect.WhyColl) || !hasEdge(1, 2, introspect.WhyColl) {
		t.Errorf("edges = %+v, want straggler edges 0->2 and 1->2", last.Edges)
	}
	if !hasEdge(2, 0, introspect.WhyRecv) {
		t.Errorf("edges = %+v, want recv edge 2->0", last.Edges)
	}
}

// TestCleanRunNoStalls runs a completing exchange pattern under a tight
// capture cadence: the plane must record snapshots but zero stall reports,
// and every rank must end dead (exited) in the final snapshot.
func TestCleanRunNoStalls(t *testing.T) {
	clus := inspCluster(4, 1)
	pl := clus.Introspect
	mpi.Launch(clus, 4, func(c *mpi.Comm) {
		// Ring exchange with some compute so captures land mid-run.
		c.Self().Compute(c.Proc(), 0.05)
		next, prev := (c.Rank()+1)%c.Size(), (c.Rank()+3)%c.Size()
		if err := c.Send(next, 5, bytes.Repeat([]byte("x"), 1<<12)); err != nil {
			t.Errorf("send: %v", err)
		}
		if _, err := c.Recv(prev, 5); err != nil {
			t.Errorf("recv: %v", err)
		}
		if err := c.Barrier(); err != nil {
			t.Errorf("barrier: %v", err)
		}
	})
	pl.Start()
	clus.Sim.Run()
	pl.Final()

	if st := clus.Sim.Stranded(); len(st) != 0 {
		t.Fatalf("stranded: %v", st)
	}
	if stalls := pl.Stalls(); len(stalls) != 0 {
		t.Fatalf("stall reports on a completing run: %+v", stalls)
	}
	snaps := pl.Snapshots()
	if len(snaps) < 2 {
		t.Fatalf("%d snapshots, want the cadence plus the final capture", len(snaps))
	}
	last := snaps[len(snaps)-1]
	for _, rs := range last.Ranks {
		if rs.State != introspect.StateDead {
			t.Errorf("rank %d final state = %q, want dead (exited)", rs.Rank, rs.State)
		}
	}
}

// TestSnapshotsDeterministic runs the same fixture twice and requires the
// serialized snapshot streams to be byte-identical: captures are keyed on
// virtual time only, so same-seed reruns must reproduce exactly.
func TestSnapshotsDeterministic(t *testing.T) {
	run := func() []byte {
		clus := inspCluster(4, 1)
		pl := clus.Introspect
		mpi.Launch(clus, 4, func(c *mpi.Comm) {
			c.Self().Compute(c.Proc(), 0.03)
			if _, err := c.AllreduceInt64(int64(c.Rank()), func(a, b int64) int64 { return a + b }); err != nil {
				t.Errorf("allreduce: %v", err)
			}
		})
		pl.Start()
		clus.Sim.Run()
		pl.Final()
		var buf bytes.Buffer
		if err := pl.WriteJSONL(&buf); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed snapshot streams differ:\nA: %d bytes\nB: %d bytes", len(a), len(b))
	}
	if len(a) == 0 || !bytes.Contains(a, []byte(`"kind":"snapshot"`)) {
		t.Fatalf("stream recorded no snapshots: %q", a)
	}
}

// TestGoldenDeadlockFixture keeps the committed selftest fixture
// (testdata/deadlock.jsonl, rendered by `make introspect-selftest` through
// ftmr-trace inspect) in sync with what the plane actually emits for the
// crossed-recv deadlock. Regenerate with FTMR_UPDATE_GOLDEN=1.
func TestGoldenDeadlockFixture(t *testing.T) {
	clus := inspCluster(2, 1)
	pl := clus.Introspect
	mpi.Launch(clus, 2, func(c *mpi.Comm) {
		peer := 1 - c.Rank()
		if _, err := c.Recv(peer, 7); err != nil {
			t.Errorf("rank %d: recv: %v", c.Rank(), err)
			return
		}
		_ = c.Send(peer, 7, nil)
	})
	pl.Start()
	clus.Sim.Run()
	pl.Final()

	var buf bytes.Buffer
	if err := pl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/deadlock.jsonl"
	if os.Getenv("FTMR_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with FTMR_UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("fixture drifted from the plane's output: got %d bytes, want %d (regenerate with FTMR_UPDATE_GOLDEN=1)",
			buf.Len(), len(want))
	}
}
