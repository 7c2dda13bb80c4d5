package bench

import (
	"os"
	"strconv"
	"testing"
)

// TestThroughputGate is the event-budget half of the simulator-throughput
// regression gate wired into `make check` (opt-in via env var, like
// internal/obs TestOverheadGate): it holds Alltoallv to a number of scheduler
// events per rank — a count, host-independent, with no wall-clock threshold
// at all. The other half, the mailbox index against its O(n) reference model
// on the thr-des incast shape, is internal/mpi's
// TestIndexedMatchingOutpacesReferenceScan under the same variable.
func TestThroughputGate(t *testing.T) {
	if os.Getenv("FTMR_THROUGHPUT_GATE") == "" {
		t.Skip("set FTMR_THROUGHPUT_GATE=1 to run the simulator throughput gate (make throughput-gate)")
	}
	// Alltoallv is a rendezvous that costs a constant number of scheduler
	// events per rank (its start and its one completion wake), not one per
	// message — W² of them would be back if the exchange were ever simulated
	// message by message again.
	const exchRanks, exchBudget = 256, 4
	if ev := runExchangeEvents(exchRanks); ev > exchBudget*exchRanks {
		t.Fatalf("event gate: one W=%d Alltoallv took %d scheduler events (%.1f per rank), budget %d per rank",
			exchRanks, ev, float64(ev)/exchRanks, exchBudget)
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
	t.Logf("W=%d wordcount: %d tasks, %d events, virtual %v, wall %v — %.2f Mev/s",
		c.ranks, c.tasks, c.events, c.vt, c.wall, c.evPerSec()/1e6)
}
