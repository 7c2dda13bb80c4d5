package failure

import (
	"math/rand"
	"testing"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/mpi"
)

func testCluster() *cluster.Cluster {
	cfg := cluster.Default()
	cfg.Nodes = 4
	cfg.PPN = 2
	return cluster.New(cfg)
}

func sleepers(clus *cluster.Cluster, n int) *mpi.World {
	return mpi.Launch(clus, n, func(c *mpi.Comm) {
		c.SetErrHandler(func(*mpi.Comm, error) {})
		c.Proc().Sleep(time.Hour)
	})
}

func TestKillAt(t *testing.T) {
	clus := testCluster()
	w := sleepers(clus, 4)
	KillAt(w, 2, 5*time.Second)
	clus.Sim.Run()
	if w.Rank(2).Alive() {
		t.Fatal("rank 2 still alive")
	}
	if w.AliveCount() != 3 {
		t.Fatalf("alive = %d", w.AliveCount())
	}
}

func TestContinuousKillsExactlyMax(t *testing.T) {
	clus := testCluster()
	w := sleepers(clus, 8)
	Continuous(w, time.Second, 5, rand.New(rand.NewSource(42)).Intn)
	clus.Sim.Run()
	if got := 8 - w.AliveCount(); got != 5 {
		t.Fatalf("killed %d, want 5", got)
	}
}

func TestContinuousDeterministicVictims(t *testing.T) {
	victims := func() []int {
		clus := testCluster()
		w := sleepers(clus, 8)
		Continuous(w, time.Second, 3, rand.New(rand.NewSource(7)).Intn)
		clus.Sim.Run()
		var out []int
		for r := 0; r < 8; r++ {
			if !w.Rank(r).Alive() {
				out = append(out, r)
			}
		}
		return out
	}
	a, b := victims(), victims()
	if len(a) != 3 || len(a) != len(b) {
		t.Fatalf("victims %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic victims: %v vs %v", a, b)
		}
	}
}

func TestContinuousSparesLastRank(t *testing.T) {
	clus := testCluster()
	w := sleepers(clus, 3)
	Continuous(w, time.Second, 10, rand.New(rand.NewSource(1)).Intn)
	clus.Sim.Run()
	if w.AliveCount() < 1 {
		t.Fatal("killed every rank")
	}
}
