// Synthetic-deadlock fixtures for the introspection plane: ranks stranded in
// two different collectives must produce a stall report naming the exact
// cycle membership and wait reasons; completing runs must produce none.
package introspect_test

import (
	"bytes"
	"os"
	"slices"
	"sort"
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

// mismatchedMeetings runs three ranks that can never meet: ranks 0 and 1
// enter a Barrier, rank 2 an Alltoallv. It returns the plane after the run
// has drained and the Final capture is taken.
func mismatchedMeetings(t *testing.T) *introspect.Plane {
	clus := inspCluster(3, 1)
	pl := clus.Introspect
	mpi.Launch(clus, 3, func(c *mpi.Comm) {
		var err error
		if c.Rank() == 2 {
			_, err = c.Alltoallv(make([][]byte, 3))
		} else {
			err = c.Barrier()
		}
		t.Errorf("rank %d left a collective no one else entered: %v", c.Rank(), err)
	})
	pl.Start()
	clus.Sim.Run()
	pl.Final()
	if st := clus.Sim.Stranded(); len(st) != 3 {
		t.Fatalf("stranded = %v, want all three ranks", st)
	}
	return pl
}

// TestCollectiveMissingParticipant: each of two gathering meetings misses the
// ranks inside the other, so the barrier's entrants wait for rank 2 and rank
// 2 waits for both of them. The reported cycle must be exactly {0, 2},
// each member labelled with the collective it is inside.
func TestCollectiveMissingParticipant(t *testing.T) {
	pl := mismatchedMeetings(t)
	stalls := pl.Stalls()
	if len(stalls) == 0 {
		t.Fatal("no stall report for ranks stranded in mismatched collectives")
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
	if reasons[0] != "collective barrier comm=0 seq=0" {
		t.Errorf("rank 0 reason = %q, want the barrier it is inside", reasons[0])
	}
	if reasons[2] != "collective alltoallv comm=0 seq=0" {
		t.Errorf("rank 2 reason = %q, want the alltoallv it is inside", reasons[2])
	}
	if rep.OldestUS != 0 {
		t.Errorf("OldestUS = %v, want the entry instant 0", rep.OldestUS)
	}

	// Each entrant waits for every member outside its meeting.
	snaps := pl.Snapshots()
	last := snaps[len(snaps)-1]
	want := []introspect.Edge{{From: 0, To: 2}, {From: 1, To: 2}, {From: 2, To: 0}, {From: 2, To: 1}}
	for i := range want {
		want[i].Why = introspect.WhyColl
	}
	if !slices.Equal(last.Edges, want) {
		t.Errorf("edges = %+v, want %+v", last.Edges, want)
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
// (testdata/deadlock.jsonl, rendered by `make selftest` through ftmr-trace
// inspect) in sync with what the plane actually emits for the mismatched
// collectives. Regenerate with FTMR_UPDATE_GOLDEN=1.
func TestGoldenDeadlockFixture(t *testing.T) {
	pl := mismatchedMeetings(t)

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
