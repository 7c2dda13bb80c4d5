package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/kvbuf"
	"ftmrmpi/internal/mpi"
)

// rankZero launches a w-rank world whose ranks return at once and returns a
// runner over rank 0's communicator with one partition per rank, partition i
// owned by world rank i: enough of a rank to encode and merge bundles.
func rankZero(tb testing.TB, w int) *runner {
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
	r := &runner{comm: comm, m: newRankMetrics(0), nParts: w, partOwner: make([]int, w)}
	for part := range r.partOwner {
		r.partOwner[part] = part
	}
	return r
}

// keyIn returns the i-th key of the form word-<part>-<j> that hashes to
// partition part of w.
func keyIn(part, w, i int) []byte {
	for j := 0; ; j++ {
		k := []byte(fmt.Sprintf("word-%d-%d", part, j))
		if kvbuf.PartitionKey(k, w) == part {
			if i == 0 {
				return k
			}
			i--
		}
	}
}

// shuffleFixture builds rank 0's side of a W-rank shuffle with one partition
// per rank, of which only the first filled hold pairs: the runner whose
// map-output log sendBundles partitions (two pairs per filled partition, the
// partitions interleaved in the log), the W bundles mergeBundles receives for
// partition 0 — pairs from the first filled sources, an empty frame from
// every other — and what each source sends.
func shuffleFixture(tb testing.TB, w, filled int) (r *runner, recv [][]byte, sent []*kvbuf.KV) {
	tb.Helper()
	r = rankZero(tb, w)
	sent = make([]*kvbuf.KV, filled)
	for i := range sent {
		sent[i] = kvbuf.NewKV()
	}
	for round := 0; round < 2; round++ {
		for i, kv := range sent {
			k := keyIn(i, w, round)
			r.log.Add(k, []byte("1"))
			kv.Add(k, []byte("1"))
		}
	}
	recv = make([][]byte, w)
	for i := range recv {
		var payload []byte
		if i < filled {
			payload = sent[i].Bytes()
		}
		recv[i] = encodeFrame(nil, frameShuffle, 0, 0, payload)
	}
	return r, recv, sent
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
		r, recv, _ := shuffleFixture(t, w, filled)
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

// TestMapOutputAllocsPerRank is the map output's allocation gate: a rank that
// emits the same pairs at W=64 and at W=4096 makes the same allocations to
// hold them (one log, whatever the partition count) and to bundle them, and
// the bytes it allocates differ only by what is W-sized by construction: the
// shuffle's three int32 tables (owner inverse, partition cursors, bundle
// cursors), the frame every partition travels as and the slice header of
// every bundle. A per-partition buffer would add an allocation per partition
// that holds data; an []int table, 4 more bytes per rank.
func TestMapOutputAllocsPerRank(t *testing.T) {
	const pairs, reps = 2000, 5
	keys := make([][]byte, 300)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("w%05d", i*7919))
	}
	type cost struct{ emitAllocs, emitBytes, sendAllocs, sendBytes uint64 }
	// The least of a few repetitions: the runtime's own rare allocations land
	// in one of them, not in all.
	measure := func(r *runner) cost {
		var m0, m1, m2 runtime.MemStats
		c := cost{math.MaxUint64, math.MaxUint64, math.MaxUint64, math.MaxUint64}
		for rep := 0; rep < reps; rep++ {
			r.log = kvbuf.Log{}
			runtime.ReadMemStats(&m0)
			em := newEmitter(&r.log)
			for i := 0; i < pairs; i++ {
				em.Emit(keys[i%len(keys)], []byte{byte(i)})
			}
			runtime.ReadMemStats(&m1)
			if _, err := r.sendBundles(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m2)
			c.emitAllocs = min(c.emitAllocs, m1.Mallocs-m0.Mallocs)
			c.emitBytes = min(c.emitBytes, m1.TotalAlloc-m0.TotalAlloc)
			c.sendAllocs = min(c.sendAllocs, m2.Mallocs-m1.Mallocs)
			c.sendBytes = min(c.sendBytes, m2.TotalAlloc-m1.TotalAlloc)
		}
		return c
	}
	const small, large = 64, 4096
	a, b := measure(rankZero(t, small)), measure(rankZero(t, large))
	t.Logf("W=%d: emit %d allocs / %d B, bundle %d allocs / %d B; W=%d: emit %d / %d B, bundle %d / %d B",
		small, a.emitAllocs, a.emitBytes, a.sendAllocs, a.sendBytes, large, b.emitAllocs, b.emitBytes, b.sendAllocs, b.sendBytes)
	if a.emitAllocs != b.emitAllocs || a.emitBytes != b.emitBytes {
		t.Errorf("emitting the same pairs costs %d allocs / %d B at W=%d but %d / %d B at W=%d",
			a.emitAllocs, a.emitBytes, small, b.emitAllocs, b.emitBytes, large)
	}
	if a.sendAllocs != b.sendAllocs {
		t.Errorf("bundling the same pairs makes %d allocations at W=%d but %d at W=%d", a.sendAllocs, small, b.sendAllocs, large)
	}
	// Allocations round up to their size class or to whole 8 KiB pages; the
	// slack is under the 16 KiB one more 4-byte table would add at W=4096.
	const perRank, slack = 3*4 + frameHdrLen + 24, 12 << 10
	want := uint64(perRank * (large - small))
	if got := b.sendBytes - a.sendBytes; got > want+slack || got+slack < want {
		t.Errorf("bundle bytes grow by %d from W=%d to W=%d, want %d (%d B per rank) within %d", got, small, large, want, perRank, slack)
	}
}

// The merged partition is what FromBytes + Append per source used to build:
// every source's pairs, in bundle order.
func TestMergeBundlesKeepsBundleOrder(t *testing.T) {
	r, recv, sent := shuffleFixture(t, 16, 5)
	if err := r.mergeBundles(recv); err != nil {
		t.Fatal(err)
	}
	want := kvbuf.NewKV()
	for _, kv := range sent {
		want.Append(kv)
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
	r, _, _ := shuffleFixture(b, 640, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.sendBundles(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergeBundles(b *testing.B) {
	r, recv, _ := shuffleFixture(b, 640, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.mergeBundles(recv); err != nil {
			b.Fatal(err)
		}
	}
}
