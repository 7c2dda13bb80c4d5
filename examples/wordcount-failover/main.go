// Wordcount with the checkpoint/restart model: a process is killed during
// the reduce phase, the job aborts (as a stock-MPI job must), and a
// resubmitted job recovers from the durable checkpoints instead of starting
// over. The example verifies the recovered output matches a failure-free
// reference.
//
//	go run ./examples/wordcount-failover
//	go run ./examples/wordcount-failover -trace failover.json   # Chrome trace
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
	"ftmrmpi/internal/trace"
	"ftmrmpi/internal/workloads"
)

func main() {
	traceOut := flag.String("trace", "", "write a Chrome trace of both attempts to this file")
	flag.Parse()

	cfg := cluster.Default()
	cfg.Nodes = 8
	cfg.PPN = 2
	clus := cluster.New(cfg)
	if *traceOut != "" {
		clus.Trace = trace.New(clus.Sim, 1<<18)
	}

	p := workloads.DefaultWordcount()
	p.Chunks = 64
	p.Lines = 200
	p.Vocab = 800
	expect := workloads.GenCorpus(clus, "in/failover", p)

	spec := workloads.WordcountSpec("failover", "in/failover", 16, p)
	spec.Model = core.ModelCheckpointRestart
	spec.CkptInterval = 20

	// Attempt 1: rank 5 dies one millisecond after entering reduce.
	h := core.RunSingle(clus, spec)
	fired := false
	h.OnPhase(func(rank int, ph core.Phase) {
		if !fired && rank == 5 && ph == core.PhaseReduce {
			fired = true
			clus.Sim.After(time.Millisecond, func() { h.World.Kill(5) })
		}
	})
	clus.Sim.Run()
	r1 := h.Result()
	fmt.Printf("attempt 1: aborted=%v after %.3fs (failure reflected as MPI errors, job terminated)\n",
		r1.Aborted, r1.Elapsed().Seconds())

	// Attempt 2: the user resubmits; the job resumes from checkpoints.
	spec.Resume = true
	h2 := core.RunSingle(clus, spec)
	clus.Sim.Run()
	r2 := h2.Result()
	var restored, skipped int64
	for _, m := range r2.Ranks {
		if m != nil {
			restored += m.RecordsRestored
			skipped += m.RecordsSkipped
		}
	}
	fmt.Printf("attempt 2: aborted=%v in %.3fs — restored %d records from checkpoints, skipped %d\n",
		r2.Aborted, r2.Elapsed().Seconds(), restored, skipped)
	fmt.Printf("total (failed + restart): %.3fs\n",
		(r1.Elapsed() + r2.Elapsed()).Seconds())

	got := workloads.ReadWordCounts(clus, "failover", 16)
	if !reflect.DeepEqual(got, expect) {
		panic("recovered output differs from the failure-free reference!")
	}
	fmt.Printf("output verified: %d word counts identical to the failure-free reference\n", len(got))

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			panic(err)
		}
		if err := trace.WriteChrome(f, clus.Trace.Events()); err != nil {
			panic(err)
		}
		if err := f.Close(); err != nil {
			panic(err)
		}
		fmt.Printf("trace written to %s — open it in chrome://tracing or ui.perfetto.dev\n", *traceOut)
	}
}
