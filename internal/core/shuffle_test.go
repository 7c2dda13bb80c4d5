package core

import (
	"fmt"
	"strings"
	"testing"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/kvbuf"
	"ftmrmpi/internal/mpi"
)

// shuffleFixture builds rank 0's side of a W-rank shuffle with one partition
// per rank, of which only the first filled hold pairs: the runner whose map
// output sendBundles encodes, and the W bundles mergeBundles receives for
// partition 0 — pairs from the first filled sources, an empty frame from
// every other.
func shuffleFixture(tb testing.TB, w, filled int) (*runner, [][]byte) {
	tb.Helper()
	cfg := cluster.Default()
	cfg.Nodes = (w + cfg.PPN - 1) / cfg.PPN
	clus := cluster.New(cfg)
	var comm *mpi.Comm
	mpi.Launch(clus, w, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			comm = c
		}
	})
	clus.Sim.Run()
	r := &runner{comm: comm, m: newRankMetrics(0), nParts: w, partOwner: make([]int, w), mapOut: make([]*kvbuf.KV, w)}
	for part := range r.partOwner {
		r.partOwner[part] = part
	}
	recv := make([][]byte, w)
	for i := range recv {
		var payload []byte
		if i < filled {
			kv := kvbuf.NewKV()
			kv.Add([]byte(fmt.Sprintf("word-%d", i)), []byte("1"))
			kv.Add([]byte("the"), []byte("1"))
			r.mapOut[i] = kv
			payload = kv.Bytes()
		}
		recv[i] = encodeFrame(nil, frameShuffle, 0, 0, payload)
	}
	return r, recv
}

// TestShuffleAllocsPerRank is the shuffle's allocation gate: what a rank
// allocates to encode its bundles and to merge the ones it receives depends
// on how many partitions hold data, not on how many ranks there are — one
// arena, one frame walk and one pre-sized buffer per partition, where there
// used to be a frame buffer per destination and a frame slice per source.
func TestShuffleAllocsPerRank(t *testing.T) {
	const filled = 8
	allocs := make(map[int]float64)
	for _, w := range []int{64, 256} {
		r, recv := shuffleFixture(t, w, filled)
		allocs[w] = testing.AllocsPerRun(20, func() {
			bufs, err := r.sendBundles()
			if err != nil || len(bufs) != w {
				t.Fatalf("sendBundles: %d buffers, %v", len(bufs), err)
			}
			if err := r.mergeBundles(recv); err != nil {
				t.Fatal(err)
			}
		})
		if got := r.parts[0].Len(); got != 2*filled {
			t.Fatalf("W=%d: merged %d pairs into partition 0, want %d", w, got, 2*filled)
		}
	}
	t.Logf("allocations per rank: %v at W=64, %v at W=256 (%d non-empty partitions)", allocs[64], allocs[256], filled)
	if allocs[256] != allocs[64] {
		t.Errorf("allocations grow with the rank count: %v at W=64, %v at W=256", allocs[64], allocs[256])
	}
	if limit := float64(16 + filled); allocs[256] > limit {
		t.Errorf("%v allocations per rank, want at most %v", allocs[256], limit)
	}
}

// The merged partition is what FromBytes + Append per source used to build:
// every source's pairs, in bundle order.
func TestMergeBundlesKeepsBundleOrder(t *testing.T) {
	r, recv := shuffleFixture(t, 16, 5)
	if err := r.mergeBundles(recv); err != nil {
		t.Fatal(err)
	}
	want := kvbuf.NewKV()
	for i := 0; i < 5; i++ {
		want.Append(r.mapOut[i])
	}
	if got := r.parts[0]; got.Len() != want.Len() || string(got.Bytes()) != string(want.Bytes()) {
		t.Fatalf("merged partition differs from the per-source append")
	}
	if r.m.ShuffleBytes != int64(want.Size()) {
		t.Fatalf("ShuffleBytes = %d, want %d", r.m.ShuffleBytes, want.Size())
	}
	// A bundle with a damaged frame is a framing bug, reported with its place.
	recv[3][frameHdrLen] ^= 1
	err := r.mergeBundles(recv)
	if err == nil || !strings.HasPrefix(err.Error(), "core: shuffle bundle: core: frame 0 at offset 0: CRC mismatch") {
		t.Fatalf("damaged bundle: %v", err)
	}
}

// The layer benchmarks of the shuffle's host path, shaped like wc-scale: 640
// ranks, one partition each, a few small pairs in one partition in ten.

func BenchmarkSendBundles(b *testing.B) {
	r, _ := shuffleFixture(b, 640, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.sendBundles(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergeBundles(b *testing.B) {
	r, recv := shuffleFixture(b, 640, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.mergeBundles(recv); err != nil {
			b.Fatal(err)
		}
	}
}
