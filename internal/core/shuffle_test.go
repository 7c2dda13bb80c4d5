package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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
	r := &runner{comm: comm, m: newRankMetrics(0), nParts: w, partOwner: make([]int32, w)}
	for part := range r.partOwner {
		r.partOwner[part] = int32(part)
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
// partitions interleaved in the log), the blocks mergeBundles receives for
// partition 0 — one from each of the first filled sources, none from any
// other — and what each source sends.
func shuffleFixture(tb testing.TB, w, filled int) (r *runner, recv []mpi.Block, sent []*kvbuf.KV) {
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
	recv = make([]mpi.Block, filled)
	for i := range recv {
		recv[i] = mpi.Block{Peer: i, Data: encodeFrame(nil, frameShuffle, 0, 0, sent[i].Bytes())}
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
			if err != nil || len(bufs) != filled {
				t.Fatalf("sendBundles: %d blocks, want one per filled partition's owner (%d): %v", len(bufs), filled, err)
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
// int32 partition cursor table. The keys hash to the same partitions at both
// sizes (below 64 of 4096), so the same frames go to the same ranks: a
// frame or a block per empty partition, or an owner inverse or bundle table
// per rank, would show here. A per-partition buffer would add an allocation
// per partition that holds data; an []int table, 4 more bytes per rank.
func TestMapOutputAllocsPerRank(t *testing.T) {
	const pairs, reps = 2000, 5
	const small, large = 64, 4096
	keys := make([][]byte, 0, 300)
	for i := 0; len(keys) < cap(keys); i++ {
		if k := []byte(fmt.Sprintf("w%05d", i)); kvbuf.PartitionKey(k, large) < small {
			keys = append(keys, k)
		}
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
	// slack is under the 4 KiB one more byte per rank would add at W=4096.
	const perRank, slack = 4, 2 << 10
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
	recv[3].Data[frameHdrLen] ^= 1
	err := r.mergeBundles(recv)
	if err == nil || !strings.HasPrefix(err.Error(), "core: shuffle bundle: core: frame 0 at offset 0: CRC mismatch") {
		t.Fatalf("damaged bundle: %v", err)
	}
}

// mergeBundles creates the partitions the ownership table gives the rank —
// its own, or a mirroring shadow's pair's — whether or not any pairs arrived
// for them, so a partition that received none still counts as merged: it is
// checkpointed by a primary and listed by a shadow's mirrorParts. A frame of
// a partition the rank does not hold is a framing bug.
func TestMergeBundlesCreatesHeldPartitions(t *testing.T) {
	r, _, sent := shuffleFixture(t, 4, 2)
	r.partOwner = []int32{1, 1, 0, 1} // world rank 1 holds partitions 0, 1 and 3
	bundle := func(parts ...uint32) []mpi.Block {
		var b []byte
		for _, part := range parts {
			b = encodeFrame(b, frameShuffle, part, 0, sent[0].Bytes())
		}
		return []mpi.Block{{Peer: 0, Data: b}}
	}
	if err := r.mergeBundles(nil); err != nil {
		t.Fatal(err)
	}
	if kv := r.parts[2]; len(r.parts) != 1 || kv == nil || kv.Len() != 0 {
		t.Fatalf("a primary that received nothing holds %d partitions, want its own, 2, empty", len(r.parts))
	}

	// World rank 0 mirrors slot 1, whose acting primary is world rank 1.
	r.ftm = &ftState{slot: 1, mirror: true, acting: []int{2, 1}}
	if err := r.mergeBundles(bundle(1)); err != nil {
		t.Fatal(err)
	}
	if got := r.mirrorParts(); !slices.Equal(got, []int{0, 1, 3}) {
		t.Fatalf("mirrorParts = %v, want the pair's [0 1 3], those without pairs included", got)
	}
	if r.parts[0].Len() != 0 || r.parts[1].Len() != sent[0].Len() || r.parts[3].Len() != 0 {
		t.Fatalf("merged %d, %d, %d pairs into partitions 0, 1, 3, want 0, %d, 0", r.parts[0].Len(), r.parts[1].Len(), r.parts[3].Len(), sent[0].Len())
	}

	err := r.mergeBundles(bundle(1, 2))
	if err == nil || !strings.HasPrefix(err.Error(), "core: shuffle bundle: core: frame 1 at offset") || !strings.HasSuffix(err.Error(), "partition 2 is not held by world rank 1") {
		t.Fatalf("a frame of a partition the pair does not hold: %v", err)
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
