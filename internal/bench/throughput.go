package bench

import (
	"fmt"
	"time"

	"ftmrmpi/internal/core"
	"ftmrmpi/internal/scenario"
)

// Simulator-throughput benchmarks (the scale push). Unlike the paper figures,
// these measure the *simulator*, not the simulated system: a ranks×tasks
// ceiling run, one full wordcount job at W ranks (10000 by default) exercising
// the whole stack — collectives, checkpoints, status gossip — at a scale the
// paper never reaches, reported as simulated events per wall-clock second.
//
// Virtual time and event counts are deterministic; wall-clock rates are
// host-dependent and only comparable within one run. The regression gate
// (TestThroughputGate) therefore holds counts only: the scheduler events of
// one collective of each kind and the deepest mailbox of a failure-free
// wordcount, the two quantities that must not grow with W² and W for a large
// run to stay cheap.

// ceilingResult is one ranks×tasks ceiling measurement.
type ceilingResult struct {
	ranks  int
	tasks  int
	events uint64
	vt     time.Duration
	wall   time.Duration
	ok     bool
	// depth is the most unmatched messages any one mailbox held at once.
	depth int
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
	o := scenario.Run(wcScenario("thr-ceiling", ranks, p, evalSpec(core.ModelDetectResumeWC)))
	wall := time.Since(start)
	res := o.Result()
	return ceilingResult{
		ranks:  ranks,
		tasks:  p.Chunks,
		events: o.Clus.Sim.EventsProcessed(),
		vt:     res.Elapsed(),
		wall:   wall,
		ok:     res != nil && !res.Aborted,
		depth:  o.Attempts[0].World.PeakMailboxDepth(),
	}
}

// ceilingRanks returns the ceiling-run rank count for a scale.
func (s Scale) ceilingRanks() int {
	if s.Quick {
		return 1024
	}
	return 10000
}

// thrDES reproduces the simulator-throughput table: the ranks×tasks ceiling
// run.
func thrDES(s Scale) *Table {
	t := &Table{
		ID:      "thr-des",
		Title:   "simulator throughput: DES/mailbox events per second",
		Columns: []string{"shape", "ranks", "tasks/msgs", "events", "virt_s", "wall_s", "Mev/s"},
		Notes: []string{
			"events and virt_s are deterministic; wall_s and Mev/s are host-dependent",
		},
	}
	c := runCeiling(s.ceilingRanks())
	shape := "ceiling-wordcount"
	if !c.ok {
		shape = "ceiling-wordcount(FAILED)"
	}
	t.AddRow(shape, fmt.Sprint(c.ranks), fmt.Sprint(c.tasks), fmt.Sprint(c.events),
		secs(c.vt), fmt.Sprintf("%.3f", c.wall.Seconds()), fmt.Sprintf("%.2f", c.evPerSec()/1e6))
	return t
}
