package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/kvbuf"
	"ftmrmpi/internal/mpi"
	"ftmrmpi/internal/obs"
	"ftmrmpi/internal/storage"
)

// rankZero launches a w-rank world whose ranks return at once and returns a
// runner over rank 0's communicator with one partition per rank, partition i
// owned by world rank i: enough of a rank to lay out and merge shuffle blocks.
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
	owners := make([]int32, w)
	for part := range owners {
		owners[part] = int32(part)
	}
	return &runner{job: &jobCtx{h: &Handle{}}, comm: comm, m: newRankMetrics(0), nParts: w, partOwner: denseOwners(owners...)}
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

// kvBytes returns a KV's encoding as one slice: its pieces joined.
func kvBytes(kv *kvbuf.KV) []byte { return bytes.Join(kv.Pieces(nil), nil) }

// runBlock is a shuffle block from (or to) comm rank peer holding runs, priced
// as sendBundles prices one: a frame header plus the payload per run.
func runBlock(peer int, runs ...partRun) mpi.Block {
	size := 0
	for _, run := range runs {
		size += frameHdrLen + len(run.payload)
	}
	return mpi.Block{Peer: peer, Val: &runs, Size: size}
}

// framedBlock is a shuffle block as the frameShuffle frames that would carry
// its runs, in list order.
func framedBlock(b mpi.Block) []byte {
	var out []byte
	for _, run := range runsOf(b) {
		out = encodeFrame(out, frameShuffle, uint32(run.part), 0, run.payload)
	}
	return out
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
		recv[i] = runBlock(i, partRun{part: 0, payload: kvBytes(sent[i])})
	}
	return r, recv, sent
}

// TestShuffleAllocsPerRank is the shuffle's allocation gate: what a rank
// allocates to lay out its blocks and to merge the ones it receives depends
// on how many partitions hold data, not on how many ranks there are — one
// arena, one list of runs and one pre-sized buffer for the short payloads,
// where there used to be a frame buffer per destination and a frame slice per
// source.
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
// emits the same pairs at W=64 and at W=4096 makes the same allocations, of
// the same bytes, to hold them (one log, whatever the partition count) and to
// bundle them: the shuffle sizes its tables by the partitions the log
// touches, not by the partition count. The keys hash to the same partitions
// at both sizes (below 64 of 4096), so the same frames go to the same ranks:
// a frame or a block per empty partition, or an owner inverse, bundle or
// cursor table per rank, would show here. A per-partition buffer would add an
// allocation per partition that holds data; an int32 table per partition, 4
// more bytes per rank.
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
	const slack = 2 << 10
	if a.sendBytes > b.sendBytes+slack || b.sendBytes > a.sendBytes+slack {
		t.Errorf("bundling the same pairs allocates %d B at W=%d but %d B at W=%d, want equal within %d", a.sendBytes, small, b.sendBytes, large, slack)
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
		kv.ForEach(want.Add)
	}
	if got := r.parts[0]; got.Len() != want.Len() || !bytes.Equal(kvBytes(got), kvBytes(want)) {
		t.Fatalf("merged partition differs from the per-source append")
	}
	if r.m.ShuffleBytes != int64(want.Size()) {
		t.Fatalf("ShuffleBytes = %d, want %d", r.m.ShuffleBytes, want.Size())
	}
	// A run whose pairs are malformed is refused by the KV's framing check,
	// reported with its source and partition.
	payload := kvBytes(sent[3])
	recv[3] = runBlock(3, partRun{part: 0, payload: payload[:len(payload)-1]})
	err := r.mergeBundles(recv)
	if err == nil || !strings.HasPrefix(err.Error(), "core: shuffle block from comm rank 3, partition 0: kvbuf: truncated pair body") {
		t.Fatalf("malformed run: %v", err)
	}
}

// mergeBundles creates the partitions the ownership table gives the rank —
// its own, or a mirroring shadow's pair's — whether or not any pairs arrived
// for them, so a partition that received none still counts as merged: it is
// checkpointed by a primary and listed by a shadow's mirrorParts. A run of a
// partition the rank does not hold is a routing bug.
func TestMergeBundlesCreatesHeldPartitions(t *testing.T) {
	r, _, sent := shuffleFixture(t, 4, 2)
	r.partOwner = denseOwners(1, 1, 0, 1) // world rank 1 holds partitions 0, 1 and 3
	bundle := func(parts ...int32) []mpi.Block {
		var runs []partRun
		for _, part := range parts {
			runs = append(runs, partRun{part: part, payload: kvBytes(sent[0])})
		}
		return []mpi.Block{runBlock(0, runs...)}
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
	if err == nil || err.Error() != "core: shuffle block from comm rank 0: partition 2 is not held by world rank 1" {
		t.Fatalf("a run of a partition the pair does not hold: %v", err)
	}
}

// pairsOf returns n bytes of encoded pairs: random keys of 1-8 bytes and
// values of up to 300, the last pair's value sized to land on n (n >= 9, or 0).
func pairsOf(rng *rand.Rand, n int) []byte {
	kv := kvbuf.NewKV()
	for left := n; left > 0; {
		k := make([]byte, 1+rng.Intn(8))
		v := make([]byte, rng.Intn(301))
		if left-8-len(k)-len(v) < 9 {
			k, v = k[:1], make([]byte, left-9)
		}
		rng.Read(k)
		rng.Read(v)
		kv.Add(k, v)
		left -= 8 + len(k) + len(v)
	}
	return kvBytes(kv)
}

// copyingMerge is mergeBundles as it was before it kept long payloads by
// reference, the oracle of the merge: one walk sizes each held partition, a
// second copies every payload, in block order, into a buffer that already
// has the room (KV.Grow + KV.AppendBytes). It returns each held partition's
// encoding.
func copyingMerge(held []int, bundles []mpi.Block) map[int][]byte {
	sizes := make(map[int]int, len(held))
	for _, b := range bundles {
		for _, run := range runsOf(b) {
			sizes[int(run.part)] += len(run.payload)
		}
	}
	out := make(map[int][]byte, len(held))
	for _, part := range held {
		out[part] = make([]byte, 0, sizes[part])
	}
	for _, b := range bundles {
		for _, run := range runsOf(b) {
			out[int(run.part)] = append(out[int(run.part)], run.payload...)
		}
	}
	return out
}

// checkMerge merges recv into r and holds every partition r holds to
// copyingMerge's: the same snapshot frame and the same KMV, byte for byte.
func checkMerge(t *testing.T, what string, r *runner, held []int, recv []mpi.Block) {
	t.Helper()
	want := copyingMerge(held, recv)
	if err := r.mergeBundles(recv); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if len(r.parts) != len(held) {
		t.Fatalf("%s: merged %d partitions, want %d", what, len(r.parts), len(held))
	}
	for _, part := range held {
		kv := r.parts[part]
		got := encodeFrame(nil, frameShuffle, uint32(part), 0, kv.Pieces(nil)...)
		if !bytes.Equal(got, encodeFrame(nil, frameShuffle, uint32(part), 0, want[part])) {
			t.Fatalf("%s, mirroring %v: partition %d's snapshot frame differs from the copying merge's", what, r.mirroring(), part)
		}
		ref, err := kvbuf.FromBytes(want[part])
		if err != nil {
			t.Fatal(err)
		}
		m, _ := kvbuf.ConvertTwoPass(kv)
		mref, _ := kvbuf.ConvertTwoPass(ref)
		if !bytes.Equal(kvbuf.EncodeKMV(m), kvbuf.EncodeKMV(mref)) || kv.Len() != ref.Len() {
			t.Fatalf("%s, mirroring %v: partition %d's KMV differs from the copying merge's", what, r.mirroring(), part)
		}
	}
}

// Property: the merge that keeps payloads of at least storage.ShareMin bytes
// by reference builds, for every held partition, the snapshot frame and the
// KMV the copying merge built, byte for byte — over payloads either side of
// 4 KiB, empty partitions, and a shadow's copies of the same blocks: a
// mirroring shadow merges the very arenas its pair merges, and neither merge
// writes a byte of them.
func TestMergeBundlesMatchesCopyingMerge(t *testing.T) {
	lens := []int{0, 9, 100, 1000, storage.ShareMin - 1, storage.ShareMin, storage.ShareMin + 1, 3 * storage.ShareMin, 20000}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const w = 4
		primary, shadow := rankZero(t, w), rankZero(t, w)
		nParts := 1 + rng.Intn(12)
		primary.nParts, shadow.nParts = nParts, nParts
		primaryOwners, shadowOwners := make([]int32, nParts), make([]int32, nParts)
		for part := range nParts {
			// The shadow mirrors world rank 2, which holds what the primary,
			// world rank 0, holds.
			o := int32(rng.Intn(w))
			primaryOwners[part], shadowOwners[part] = o, o
			if o == 0 {
				shadowOwners[part] = 2
			} else if o == 2 {
				shadowOwners[part] = 0
			}
		}
		primary.partOwner, shadow.partOwner = denseOwners(primaryOwners...), denseOwners(shadowOwners...)
		shadow.ftm = &ftState{slot: 1, mirror: true, acting: []int{1, 2}}
		held := primary.ownedParts()
		var recv []mpi.Block
		for src := range w {
			var runs []partRun
			for _, part := range held {
				if n := lens[rng.Intn(len(lens))]; n > 0 {
					runs = append(runs, partRun{part: int32(part), payload: pairsOf(rng, n)})
				}
			}
			if runs != nil {
				recv = append(recv, runBlock(src, runs...))
			}
		}
		sent := make([][]byte, len(recv))
		for i, b := range recv {
			sent[i] = framedBlock(b)
		}
		for _, r := range []*runner{primary, shadow} {
			checkMerge(t, fmt.Sprintf("seed %d", seed), r, held, recv)
		}
		for i, b := range recv {
			if !bytes.Equal(framedBlock(b), sent[i]) {
				t.Fatalf("seed %d: the merges wrote into the block from rank %d", seed, b.Peer)
			}
		}
	}
}

// Property (the price oracle): over random map-output logs, world sizes and
// ownership maps — partitions no comm rank owns, and replicate pairings whose
// live shadows get copies of their primaries' blocks — every block the
// exchange is handed holds, for its destination's partitions that hold
// pairs, those pairs in ascending partition order, and is priced at the
// length of the frameShuffle frames encodeFrame builds over them: a header
// per partition plus its pairs. Each destination then merges what every
// sender sent it into what the copying merge builds.
func TestShuffleBlocksPricedAtFramedLength(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := 2 + rng.Intn(7)
		nParts := 1 + rng.Intn(3*w)
		// Under replication, world ranks [0, p) act for the slots, [p, 2p)
		// are their shadows, some dead, and an odd rank out is spare;
		// otherwise every rank is a primary.
		p := w
		var ftm *ftState
		if rng.Intn(2) == 0 {
			p = w / 2
			ftm = &ftState{acting: make([]int, p), shadow: make([]int, p)}
			for slot := range p {
				ftm.acting[slot], ftm.shadow[slot] = slot, -1
				if rng.Intn(3) > 0 {
					ftm.shadow[slot] = p + slot
				}
			}
		}
		// holder is the world rank whose partitions comm rank d receives, -1
		// for a dead shadow or a spare rank, which receive nothing.
		holder := func(d int) int {
			switch {
			case ftm == nil || d < p:
				return d
			case d < 2*p && ftm.shadow[d-p] >= 0:
				return ftm.acting[d-p]
			}
			return -1
		}
		owners := make([]int32, nParts)
		for part := range owners {
			owners[part] = int32(rng.Intn(p))
			if rng.Intn(5) == 0 {
				owners[part] = int32(w) // a rank outside the communicator
			}
		}
		r := rankZero(t, w)
		r.nParts, r.partOwner, r.ftm, r.obs = nParts, denseOwners(owners...), ftm, &obs.Handle{}
		recv := make([][]mpi.Block, w) // by destination comm rank
		for src := range p {
			r.log = kvbuf.Log{}
			byPart := make([]*kvbuf.KV, nParts)
			for part := range byPart {
				byPart[part] = kvbuf.NewKV()
			}
			for n := rng.Intn(300); n > 0; n-- {
				k, v := make([]byte, 1+rng.Intn(8)), make([]byte, rng.Intn(40))
				if rng.Intn(50) == 0 {
					v = make([]byte, storage.ShareMin+rng.Intn(storage.ShareMin))
				}
				rng.Read(k)
				rng.Read(v)
				r.log.Add(k, v)
				byPart[kvbuf.PartitionKey(k, nParts)].Add(k, v)
			}
			send, err := r.sendBundles()
			if err != nil {
				t.Fatal(err)
			}
			send = r.withShadowCopies(send)
			i := 0
			for d := range w {
				var want []byte
				for part, o := range owners {
					if int(o) == holder(d) && byPart[part].Len() > 0 {
						want = encodeFrame(want, frameShuffle, uint32(part), 0, byPart[part].Pieces(nil)...)
					}
				}
				if want == nil {
					if i < len(send) && send[i].Peer == d {
						t.Fatalf("seed %d, sender %d: a block for comm rank %d, which is sent nothing", seed, src, d)
					}
					continue
				}
				if i == len(send) || send[i].Peer != d {
					t.Fatalf("seed %d, sender %d: no block for comm rank %d", seed, src, d)
				}
				b := send[i]
				if b.Size != len(want) || !bytes.Equal(framedBlock(b), want) {
					t.Fatalf("seed %d, sender %d: the block for comm rank %d is priced at %d B, its frames are %d B; want %d B of frames",
						seed, src, d, b.Size, len(framedBlock(b)), len(want))
				}
				recv[d] = append(recv[d], mpi.Block{Peer: src, Val: b.Val, Size: b.Size})
				i++
			}
			if i != len(send) {
				t.Fatalf("seed %d, sender %d: %d blocks, want %d", seed, src, len(send), i)
			}
		}
		for d := range w {
			if holder(d) < 0 {
				continue
			}
			// A receiver at world rank 0: the partitions of d swapped with
			// its own, or a shadow mirroring d's slot.
			rcv, own, held := rankZero(t, w), slices.Clone(owners), 0
			if ftm != nil && d >= p {
				rcv.ftm = &ftState{slot: d - p, mirror: true, acting: ftm.acting}
				held = holder(d)
			} else {
				for part, o := range own {
					switch int(o) {
					case d:
						own[part] = 0
					case 0:
						own[part] = int32(d)
					}
				}
			}
			rcv.nParts, rcv.partOwner = nParts, denseOwners(own...)
			checkMerge(t, fmt.Sprintf("seed %d, comm rank %d", seed, d), rcv, rcv.partsOf(held), recv[d])
		}
	}
}

// longFrames is the shuffle's receive side shaped like wc-data: senders
// blocks of one run each, for partition 0 of a senders-rank world, whose
// payloads are size bytes of pairs.
func longFrames(tb testing.TB, senders, size int) (*runner, []mpi.Block) {
	r := rankZero(tb, senders)
	rng := rand.New(rand.NewSource(int64(size)))
	recv := make([]mpi.Block, senders)
	for i := range recv {
		recv[i] = runBlock(i, partRun{part: 0, payload: pairsOf(rng, size)})
	}
	return r, recv
}

// TestMergeReferencesLongFrames is the merge's allocation gate (`make
// alloc-gate`): 16 runs of 128 KiB reach a partition as 16 pieces by
// reference, so merging them allocates under 1 % of their 2 MiB — a
// partition table, piece lists and the tables the walks size — where copying
// them allocated all of it.
func TestMergeReferencesLongFrames(t *testing.T) {
	const senders, size = 16, 128 << 10
	r, recv := longFrames(t, senders, size)
	var m0, m1 runtime.MemStats
	alloc := uint64(math.MaxUint64)
	for range 5 { // the least of a few: the runtime's rare allocations land in one
		runtime.ReadMemStats(&m0)
		if err := r.mergeBundles(recv); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		alloc = min(alloc, m1.TotalAlloc-m0.TotalAlloc)
	}
	if pieces := r.parts[0].Pieces(nil); len(pieces) != senders || r.parts[0].Size() != senders*size {
		t.Fatalf("partition 0 is %d pieces of %d bytes, want %d of %d", len(pieces), r.parts[0].Size(), senders, senders*size)
	}
	t.Logf("merging %d runs of %d KiB allocated %d B", senders, size>>10, alloc)
	if limit := uint64(senders * size / 100); alloc > limit {
		t.Errorf("merging %d runs of %d KiB allocated %d B, want under %d (1 %%): it copies the long payloads", senders, size>>10, alloc, limit)
	}
}

// The merge refuses a partition its KMV could not index with int32 offsets,
// naming the partition and its size, before it allocates anything for it.
func TestMergeRefusesPartitionsOver2GiB(t *testing.T) {
	if _, err := mergedParts([]int{3, 7}, []int{10, math.MaxInt32}, []int{10, 0}); err != nil {
		t.Fatalf("a partition of MaxInt32 bytes: %v", err)
	}
	_, err := mergedParts([]int{3, 7}, []int{10, math.MaxInt32 + 1}, []int{10, 0})
	if err == nil || !strings.Contains(err.Error(), "partition 7 receives 2147483648 bytes") || !strings.Contains(err.Error(), "2 GiB bound") {
		t.Fatalf("a partition of 2 GiB: %v", err)
	}
}

// The layer benchmarks of the shuffle's host path: sendBundles shaped like
// wc-scale (640 ranks, one partition each, a few small pairs in one partition
// in ten), mergeBundles shaped like wc-scale and like wc-data (16 senders of
// one ~130 KB run each).

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
	b.Run("640x64", func(b *testing.B) {
		r, recv, _ := shuffleFixture(b, 640, 64)
		benchmarkMerge(b, r, recv)
	})
	b.Run("16x130KB", func(b *testing.B) {
		r, recv := longFrames(b, 16, 130000)
		benchmarkMerge(b, r, recv)
	})
}

func benchmarkMerge(b *testing.B, r *runner, recv []mpi.Block) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.mergeBundles(recv); err != nil {
			b.Fatal(err)
		}
	}
}
