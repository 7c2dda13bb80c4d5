package failure

import (
	"fmt"
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

// PageRank at W=8 under DR-WC with the load balancer, one iteration, rank 0
// killed at 20 ms and rank 4 at 40.26 ms. The first recovery deals two of
// rank 0's half-run map tasks to rank 4. With eight ranks to a node, rank 4
// shares rank 0's local disk, where rank 0's un-truncated checkpoint files
// still lay: rank 4 appended its frames to them and its copier drained them
// from byte 0, so the PFS streams held rank 0's delta frames twice, and the
// second recovery's adopter replayed both copies (215 of 2 000 ranks came out
// high). With nodes of two the same schedule was right, which is why it
// passed as the balancer's fault for so long. Both shapes must match the
// sequential reference.
func TestAdoptedStreamOnSharedNodeReplaysOnce(t *testing.T) {
	const ranks, iters = 8, 1
	p := workloads.DefaultPageRank()
	p.Graph.Nodes, p.Graph.Chunks, p.Graph.Seed = 2000, 64, 3
	want := workloads.RefPageRank(p, iters)
	for _, ppn := range []int{8, 2} {
		t.Run(fmt.Sprintf("ppn=%d", ppn), func(t *testing.T) {
			cfg := cluster.Default()
			cfg.Nodes, cfg.PPN = ranks/ppn, ppn
			clus := cluster.New(cfg)
			workloads.GenPageRankInput(clus, "in/pr", p)
			var final string
			h := core.Launch(clus, ranks, func(app *core.App) {
				base := core.Spec{Model: core.ModelDetectResumeWC, LoadBalance: true}
				if out, err := workloads.PageRankDriver(app, base, "pr", "in/pr", iters, p); err == nil {
					final = out
				}
			})
			KillAt(h.World, 0, 20*time.Millisecond)
			KillAt(h.World, 4, 40260*time.Microsecond)
			clus.Sim.Run()
			if alive := h.World.AliveCount(); alive != ranks-2 {
				t.Fatalf("%d ranks alive, want %d", alive, ranks-2)
			}
			got := workloads.ReadRanks(clus, final)
			if len(got) != len(want) {
				t.Fatalf("%d nodes in the output, reference has %d", len(got), len(want))
			}
			wrong := 0
			for i, r := range want {
				if math.Abs(got[i]-r) > 1e-9 {
					wrong++
				}
			}
			if wrong > 0 {
				t.Fatalf("%d of %d ranks differ from the reference", wrong, len(want))
			}
		})
	}
}
