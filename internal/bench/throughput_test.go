package bench

import (
	"os"
	"strconv"
	"testing"
)

// TestThroughputGate is the simulator-throughput regression gate wired into
// `make check` (style of internal/obs TestOverheadGate: opt-in via env var, and
// host-independent because it compares two configurations on the same
// host). It runs the mailbox-pressure microbenchmark under the legacy
// linear matcher and under the indexed matcher and fails when the indexed
// path has lost its advantage — which is exactly what a regression in the
// scheduler hot path or the mailbox index looks like, since both paths
// share every other cost. It also holds Alltoallv to an event budget per
// rank, a count with no wall-clock threshold at all.
//
// The committed baseline (BENCH_results.json, thr-des figure) shows the
// indexed path >=2x the linear path at this shape; the gate threshold
// leaves headroom for noisy CI hosts.
func TestThroughputGate(t *testing.T) {
	if os.Getenv("FTMR_THROUGHPUT_GATE") == "" {
		t.Skip("set FTMR_THROUGHPUT_GATE=1 to run the simulator throughput gate (make bench-throughput)")
	}
	// Event budget, host-independent: Alltoallv is a rendezvous that costs a
	// constant number of scheduler events per rank (its start and its one
	// completion wake), not one per message — W² of them would be back if
	// the exchange were ever simulated message by message again.
	const exchRanks, exchBudget = 256, 4
	if ev := runExchangeEvents(exchRanks); ev > exchBudget*exchRanks {
		t.Fatalf("event gate: one W=%d Alltoallv took %d scheduler events (%.1f per rank), budget %d per rank",
			exchRanks, ev, float64(ev)/exchRanks, exchBudget)
	}

	ranks, hubs, reps, rounds := Scale{}.pressureShape()
	// Warm both paths once so neither measurement pays first-run costs
	// (page faults, heap growth) the other skipped.
	runMailboxPressure(ranks, hubs, reps, rounds, true)
	runMailboxPressure(ranks, hubs, reps, rounds, false)
	lin := runMailboxPressure(ranks, hubs, reps, rounds, true)
	idx := runMailboxPressure(ranks, hubs, reps, rounds, false)

	// Determinism first: both matchers must schedule the identical event
	// sequence, or the speedup is meaningless.
	if lin.events != idx.events || lin.vt != idx.vt {
		t.Fatalf("matching paths diverged: linear %d events vt=%v, indexed %d events vt=%v",
			lin.events, lin.vt, idx.events, idx.vt)
	}
	ratio := idx.evPerSec() / lin.evPerSec()
	t.Logf("linear:  %d events in %v (%.2f Mev/s)", lin.events, lin.wall, lin.evPerSec()/1e6)
	t.Logf("indexed: %d events in %v (%.2f Mev/s)", idx.events, idx.wall, idx.evPerSec()/1e6)
	t.Logf("indexed/linear events-per-second ratio: %.2fx", ratio)
	const minRatio = 1.4
	if ratio < minRatio {
		t.Fatalf("throughput gate: indexed matching is only %.2fx the linear path (want >= %.2fx); "+
			"the DES/mailbox hot path regressed", ratio, minRatio)
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
