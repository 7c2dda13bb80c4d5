package failure

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
	"ftmrmpi/internal/workloads"
)

// PageRank at W=128 under Continuous(20 ms, 4 kills, seed 50): the fourth
// kill lands near the first job's end. It used to catch ranks on both sides of
// the job boundary, and RunJob rebuilt the newer job on a fresh runner whose
// copier was left parked forever. A masking job now closes with a shrink every
// live rank enters, so no rank starts a job while another is still in the one
// before; the run stays as the job-boundary regression.
func TestRestartedJobStopsItsCopier(t *testing.T) {
	const ranks, iters, seed = 128, 2, 50
	cfg := cluster.Default()
	cfg.Nodes = ranks / cfg.PPN
	clus := cluster.New(cfg)
	p := workloads.DefaultPageRank()
	p.Graph.Nodes, p.Graph.Chunks, p.Graph.Seed = 16000, 256, seed
	workloads.GenPageRankInput(clus, "in/pr", p)
	var final string
	h := core.Launch(clus, ranks, func(app *core.App) {
		base := core.Spec{Model: core.ModelDetectResumeWC, LoadBalance: true}
		if out, err := workloads.PageRankDriver(app, base, "pr", "in/pr", iters, p); err == nil {
			final = out
		}
	})
	Continuous(h.World, 20*time.Millisecond, 4, rand.New(rand.NewSource(seed)).Intn)
	clus.Sim.Run()
	if st := clus.Sim.Stranded(); len(st) != 0 {
		t.Fatalf("%d stranded procs after the run, first %q", len(st), st[0])
	}
	if alive := h.World.AliveCount(); alive != ranks-4 {
		t.Fatalf("%d ranks alive, want %d", alive, ranks-4)
	}
	got, want := workloads.ReadRanks(clus, final), workloads.RefPageRank(p, iters)
	if len(got) != len(want) {
		t.Fatalf("%d nodes in the output, reference has %d", len(got), len(want))
	}
	for i, r := range want {
		if math.Abs(got[i]-r) > 1e-9 {
			t.Fatalf("rank of node %d is %.12f, reference says %.12f", i, got[i], r)
		}
	}
}
