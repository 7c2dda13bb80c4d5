package bench

import (
	"os"
	"strconv"
	"testing"

	"ftmrmpi/internal/mpi"
	"ftmrmpi/internal/scenario"
)

// runExchangeEvents runs one collective — coll, called once by every rank —
// over ranks ranks and returns the scheduler events the whole run took
// (process starts included).
func runExchangeEvents(ranks int, coll func(c *mpi.Comm)) uint64 {
	clus := scenario.NewCluster(ranks)
	mpi.Launch(clus, ranks, coll)
	clus.Sim.Run()
	return clus.Sim.EventsProcessed()
}

// TestThroughputGate is the simulator-throughput regression gate (`make
// throughput-gate`, and every `go test ./...`: five W=256 runs, well under a
// second). Both halves are counts — host-independent, no wall-clock threshold
// at all — of the two things whose growth with W once made large runs slow.
func TestThroughputGate(t *testing.T) {
	// Every collective is a rendezvous that costs a constant number of
	// scheduler events per rank (its start and its one completion wake), not
	// one per message — 2(W-1) of them per tree collective and W² per
	// Alltoallv would be back if a collective were ever simulated message by
	// message again.
	const ranks, collBudget = 256, 3
	sum := func(a, b int64) int64 { return a + b }
	for _, coll := range []struct {
		name string
		call func(c *mpi.Comm)
	}{
		{"barrier", func(c *mpi.Comm) { _ = c.Barrier() }},
		{"allgather", func(c *mpi.Comm) { _, _ = c.Allgather([]byte{byte(c.Rank())}) }},
		{"allreduce", func(c *mpi.Comm) { _, _ = c.AllreduceInt64(int64(c.Rank()), sum) }},
		{"alltoallv", func(c *mpi.Comm) {
			bufs := make([][]byte, c.Size())
			for d := range bufs {
				bufs[d] = make([]byte, (c.Rank()+d)%97)
			}
			_, _ = c.Alltoallv(bufs)
		}},
	} {
		ev := runExchangeEvents(ranks, coll.call)
		t.Logf("one W=%d %s: %d scheduler events (%.2f per rank)", ranks, coll.name, ev, float64(ev)/ranks)
		if ev > collBudget*ranks {
			t.Errorf("event gate: one W=%d %s took %d scheduler events (%.2f per rank), budget %d per rank",
				ranks, coll.name, ev, float64(ev)/ranks, collBudget)
		}
	}
	// internal/mpi's mailbox is an arrival list scanned from the front,
	// because no collective sends a message: a failure-free mailbox holds
	// only the status gossip the ring sends it (measured 6 here and at
	// W=640). A change that banks messages W-deep at one rank again makes
	// every receive there O(W): it must bring a matcher with it, and fails
	// here until it does.
	const depthBudget = 32
	c := runCeiling(ranks)
	if !c.ok {
		t.Fatalf("depth gate: the W=%d wordcount did not complete", ranks)
	}
	t.Logf("W=%d wordcount: peak mailbox depth %d (budget %d)", ranks, c.depth, depthBudget)
	if c.depth > depthBudget {
		t.Fatalf("depth gate: a failure-free W=%d wordcount held %d unmatched messages in one mailbox, budget %d",
			ranks, c.depth, depthBudget)
	}
}

// TestThroughputCeiling runs the ranks×tasks ceiling wordcount (W=10000 by
// default; override the rank count with FTMR_CEILING_RANKS) and reports
// simulated events per second. Opt-in: it takes minutes at full scale.
func TestThroughputCeiling(t *testing.T) {
	if os.Getenv("FTMR_THROUGHPUT_CEILING") == "" {
		t.Skip("set FTMR_THROUGHPUT_CEILING=1 to run the 10k-rank ceiling benchmark (make bench-throughput)")
	}
	ranks := Scale{}.ceilingRanks()
	if v := os.Getenv("FTMR_CEILING_RANKS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			ranks = n
		}
	}
	c := runCeiling(ranks)
	if !c.ok {
		t.Fatalf("ceiling wordcount at W=%d did not complete", ranks)
	}
	t.Logf("W=%d wordcount: %d tasks, %d events, virtual %v, wall %v — %.2f Mev/s, peak mailbox depth %d",
		c.ranks, c.tasks, c.events, c.vt, c.wall, c.evPerSec()/1e6, c.depth)
}
