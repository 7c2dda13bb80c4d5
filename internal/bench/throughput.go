package bench

import (
	"fmt"
	"time"

	"ftmrmpi/internal/core"
	"ftmrmpi/internal/mpi"
)

// DES/mailbox throughput benchmarks (the scale push). Unlike the paper
// figures, these measure the *simulator*, not the simulated system: how many
// simulated events per wall-clock second the scheduler and mailbox matcher
// sustain. Two shapes:
//
//   - a mailbox-pressure microbenchmark: an incast where every rank banks a
//     burst of tagged messages at a few hub ranks and each hub receives them
//     with specific (src, tag) in reverse arrival order. Hub mailbox depth
//     grows with W — exactly the shape of status gossip, replica pushes, and
//     shuffle incast at scale — making every receive a worst-case scan for a
//     linear matcher and O(1) for the mailbox's per-(src,tag) indexed buckets;
//   - a ranks×tasks ceiling run: one full wordcount job at W ranks (10000 by
//     default) exercising the whole stack — collectives, checkpoints, status
//     gossip — at a scale the paper never reaches.
//
// Virtual time and event counts are deterministic; wall-clock rates are
// host-dependent and only comparable within one run. The regression gate
// therefore holds counts and same-host ratios only: TestThroughputGate here
// (the Alltoallv event budget) and internal/mpi's
// TestIndexedMatchingOutpacesReferenceScan (the mailbox against its O(n)
// reference model on this incast shape).

// pressureResult is one mailbox-pressure measurement.
type pressureResult struct {
	ranks  int
	msgs   int
	events uint64
	vt     time.Duration
	wall   time.Duration
}

// runExchangeEvents runs one Alltoallv of small buffers over ranks ranks and
// returns the scheduler events the whole run took (process starts included).
func runExchangeEvents(ranks int) uint64 {
	clus := newCluster(ranks)
	mpi.Launch(clus, ranks, func(c *mpi.Comm) {
		bufs := make([][]byte, c.Size())
		for d := range bufs {
			bufs[d] = make([]byte, (c.Rank()+d)%97)
		}
		_, _ = c.Alltoallv(bufs)
	})
	clus.Sim.Run()
	return clus.Sim.EventsProcessed()
}

// runMailboxPressure runs the incast microbenchmark. Ranks >= hubs each
// send reps tagged messages per round to their hub (rank % hubs) and wait
// for an ack; each hub drains its senders in reverse (src, tag) order —
// opposite to arrival order, so a linear matcher would scan essentially the
// whole banked burst on every receive (depth ~ ranks*reps/hubs, growing with
// W) while the indexed matcher answers each from its (src, tag) bucket.
func runMailboxPressure(ranks, hubs, reps, rounds int) pressureResult {
	clus := newCluster(ranks)
	payload := make([]byte, 64)
	ack := make([]byte, 8)
	mpi.Launch(clus, ranks, func(c *mpi.Comm) {
		n := c.Size()
		me := c.Rank()
		// Tags repeat across rounds (the ack is a barrier, so a round's burst
		// is fully drained before the next begins) — like the fixed per-job
		// tag families the real system uses, and the shape index buckets are
		// built for.
		if me < hubs {
			for round := 0; round < rounds; round++ {
				for src := n - 1; src >= hubs; src-- {
					if src%hubs != me {
						continue
					}
					for t := reps - 1; t >= 0; t-- {
						if _, err := c.Recv(src, t); err != nil {
							return
						}
					}
				}
				for src := hubs; src < n; src++ {
					if src%hubs != me {
						continue
					}
					if err := c.Send(src, reps, ack); err != nil {
						return
					}
				}
			}
			return
		}
		h := me % hubs
		for round := 0; round < rounds; round++ {
			for t := 0; t < reps; t++ {
				if err := c.Send(h, t, payload); err != nil {
					return
				}
			}
			if _, err := c.Recv(h, reps); err != nil {
				return
			}
		}
	})
	start := time.Now()
	vt := clus.Sim.Run()
	wall := time.Since(start)
	return pressureResult{
		ranks:  ranks,
		msgs:   (ranks - hubs) * rounds * (reps + 1),
		events: clus.Sim.EventsProcessed(),
		vt:     vt,
		wall:   wall,
	}
}

// ceilingResult is one ranks×tasks ceiling measurement.
type ceilingResult struct {
	ranks  int
	tasks  int
	events uint64
	vt     time.Duration
	wall   time.Duration
	ok     bool
}

// evPerSec returns simulated events per wall-clock second.
func (r ceilingResult) evPerSec() float64 {
	if r.wall <= 0 {
		return 0
	}
	return float64(r.events) / r.wall.Seconds()
}

// runCeiling runs one full wordcount job at the given rank count with 2
// map tasks per rank and a small per-task input, measuring end-to-end
// simulator throughput across the whole stack.
func runCeiling(ranks int) ceilingResult {
	p := Scale{}.wcParams()
	p.Chunks = 2 * ranks
	p.Lines = 16
	start := time.Now()
	r := runWC("thr-ceiling", ranks, p, core.ModelDetectResumeWC, nil, nil)
	wall := time.Since(start)
	return ceilingResult{
		ranks:  ranks,
		tasks:  p.Chunks,
		events: r.clus.Sim.EventsProcessed(),
		vt:     r.res.Elapsed(),
		wall:   wall,
		ok:     r.res != nil && !r.res.Aborted,
	}
}

// pressureShape returns the microbenchmark sizing for a scale: rank count,
// hub count, messages per sender per round, rounds. The full shape banks a
// ~2000-message burst per hub (the W>=1000 scale the acceptance baseline
// quotes); quick trims the world, keeping the same per-hub depth regime.
func (s Scale) pressureShape() (ranks, hubs, reps, rounds int) {
	if s.Quick {
		return 256, 2, 16, 1
	}
	return 1000, 2, 32, 1
}

// ceilingRanks returns the ceiling-run rank count for a scale.
func (s Scale) ceilingRanks() int {
	if s.Quick {
		return 1024
	}
	return 10000
}

// thrDES reproduces the simulator-throughput table: the mailbox-pressure
// microbenchmark and the ranks×tasks ceiling run.
func thrDES(s Scale) *Table {
	t := &Table{
		ID:      "thr-des",
		Title:   "simulator throughput: DES/mailbox events per second",
		Columns: []string{"shape", "ranks", "tasks/msgs", "events", "virt_s", "wall_s", "Mev/s"},
		Notes: []string{
			"events and virt_s are deterministic; wall_s and Mev/s are host-dependent",
			"micro row: hub incast, reverse-(src,tag)-order receives (worst case for linear matching)",
		},
	}
	ranks, hubs, reps, rounds := s.pressureShape()
	idx := runMailboxPressure(ranks, hubs, reps, rounds)
	row := func(shape string, ranks, work int, events uint64, vt, wall time.Duration) {
		rate := "-"
		if wall > 0 {
			rate = fmt.Sprintf("%.2f", float64(events)/wall.Seconds()/1e6)
		}
		t.AddRow(shape, fmt.Sprint(ranks), fmt.Sprint(work), fmt.Sprint(events),
			secs(vt), fmt.Sprintf("%.3f", wall.Seconds()), rate)
	}
	row("micro-indexed", idx.ranks, idx.msgs, idx.events, idx.vt, idx.wall)
	c := runCeiling(s.ceilingRanks())
	shape := "ceiling-wordcount"
	if !c.ok {
		shape = "ceiling-wordcount(FAILED)"
	}
	row(shape, c.ranks, c.tasks, c.events, c.vt, c.wall)
	return t
}
