package core

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/kvbuf"
	"ftmrmpi/internal/mpi"
	"ftmrmpi/internal/obs"
	"ftmrmpi/internal/storage"
)

// rankZero launches a w-rank world whose ranks return at once and returns a
// runner over rank 0's communicator with one partition per rank, partition i
// owned by world rank i: enough of a rank to lay out and merge shuffle data.
func rankZero(tb testing.TB, w int) *runner { return rankAt(tb, w, 0) }

// rankAt is rankZero for world rank self.
func rankAt(tb testing.TB, w, self int) *runner {
	tb.Helper()
	cfg := cluster.Default()
	cfg.Nodes = (w + cfg.PPN - 1) / cfg.PPN
	clus := cluster.New(cfg)
	var comm *mpi.Comm
	mpi.Launch(clus, w, func(c *mpi.Comm) {
		if c.Rank() == self {
			comm = c
		}
	})
	clus.Sim.Run()
	return shuffleRunner(&jobCtx{h: &Handle{}}, comm, w)
}

// shuffleRunner is the runner rankAt returns, over comm, in job: its ranks
// own one partition each, partition i owned by world rank i.
func shuffleRunner(job *jobCtx, comm *mpi.Comm, w int) *runner {
	owners := make([]int32, w)
	for part := range owners {
		owners[part] = int32(part)
	}
	return &runner{job: job, comm: comm, p: comm.Proc(), m: newRankMetrics(comm.Self().WorldRank()),
		obs: &obs.Handle{}, nParts: w, partOwner: denseOwners(owners...)}
}

// launchShuffle runs body on every rank of a live w-rank world, each over
// its shuffleRunner in one job, and runs the world to its end.
func launchShuffle(tb testing.TB, w int, body func(r *runner)) *cluster.Cluster {
	tb.Helper()
	cfg := cluster.Default()
	cfg.Nodes = (w + cfg.PPN - 1) / cfg.PPN
	clus := cluster.New(cfg)
	job := &jobCtx{h: &Handle{}}
	mpi.Launch(clus, w, func(c *mpi.Comm) { body(shuffleRunner(job, c, w)) })
	return clus
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

// run is one partition's pairs, as a test lays them into an outbox.
type run struct {
	part    int32
	payload []byte
}

// inbox is what mergeBundles is handed: the routes received, by ascending
// source, and the senders' outboxes, by comm rank.
type inbox struct {
	recv []mpi.Block
	vals []any
}

// from adds the route from comm rank src whose outbox holds runs, in order,
// bound for comm rank dest, priced as sendBundles prices one: a frame header
// plus the payload per run. It returns the outbox.
func (in *inbox) from(src, dest int, runs ...run) *outbox {
	box, size := &outbox{}, int32(0)
	for _, rn := range runs {
		off := int32(len(box.arena))
		box.arena = append(box.arena, rn.payload...)
		box.runs = append(box.runs, partRun{part: rn.part, dest: int32(dest), off: off, end: int32(len(box.arena))})
		size += frameHdrLen + int32(len(rn.payload))
	}
	in.recv = append(in.recv, mpi.Block{Peer: int32(src), Size: size})
	for len(in.vals) <= src {
		in.vals = append(in.vals, nil)
	}
	in.vals[src] = box
	return box
}

// merge is mergeBundles over the inbox.
func (in *inbox) merge(r *runner) error { return r.mergeBundles(in.recv, in.vals) }

// framed is what an outbox routes to comm rank dest as the frameShuffle
// frames that would carry it: its runs for dest, in outbox order, found by a
// walk over every run.
func framed(box *outbox, dest int32) []byte {
	var out []byte
	for _, run := range box.runs {
		if run.dest == dest {
			out = encodeFrame(out, frameShuffle, uint32(run.part), 0, box.arena[run.off:run.end])
		}
	}
	return out
}

// shuffleFixture builds rank 0's side of a W-rank shuffle with one partition
// per rank, of which only the first filled hold pairs: the runner whose
// map-output log sendBundles partitions (two pairs per filled partition, the
// partitions interleaved in the log), what mergeBundles receives for
// partition 0 — a route from each of the first filled sources, none from any
// other — and what each source sends.
func shuffleFixture(tb testing.TB, w, filled int) (r *runner, in *inbox, sent []*kvbuf.KV) {
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
	in = &inbox{}
	for i := range sent {
		in.from(i, 0, run{part: 0, payload: kvBytes(sent[i])})
	}
	return r, in, sent
}

// TestShuffleAllocsPerRank is the shuffle's allocation gate: what a rank
// allocates to lay out its outbox and to merge what it receives depends on
// how many partitions hold data, not on how many ranks there are — one
// arena, one list of runs and of routes and one pre-sized buffer for the
// short payloads, where there used to be a frame buffer per destination and a
// frame slice per source.
func TestShuffleAllocsPerRank(t *testing.T) {
	const filled = 8
	allocs := make(map[int]float64)
	for _, w := range []int{64, 256} {
		r, in, _ := shuffleFixture(t, w, filled)
		allocs[w] = testing.AllocsPerRun(20, func() {
			_, send, err := r.sendBundles()
			if err != nil || len(send) != filled {
				t.Fatalf("sendBundles: %d routes, want one per filled partition's owner (%d): %v", len(send), filled, err)
			}
			if err := in.merge(r); err != nil {
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
			if _, _, err := r.sendBundles(); err != nil {
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
// every source's pairs, in route order.
func TestMergeBundlesKeepsBundleOrder(t *testing.T) {
	r, in, sent := shuffleFixture(t, 16, 5)
	if err := in.merge(r); err != nil {
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
	payload, bad := kvBytes(sent[3]), &inbox{}
	box := bad.from(3, 0, run{part: 0, payload: payload[:len(payload)-1]})
	in.recv[3], in.vals[3] = bad.recv[0], box
	err := in.merge(r)
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
	// What comm rank 0 routes to world rank 1.
	bundle := func(parts ...int32) *inbox {
		var runs []run
		for _, part := range parts {
			runs = append(runs, run{part: part, payload: kvBytes(sent[0])})
		}
		in := &inbox{}
		in.from(0, 1, runs...)
		return in
	}
	if err := r.mergeBundles(nil, nil); err != nil {
		t.Fatal(err)
	}
	if kv := r.parts[2]; len(r.parts) != 1 || kv == nil || kv.Len() != 0 {
		t.Fatalf("a primary that received nothing holds %d partitions, want its own, 2, empty", len(r.parts))
	}

	// World rank 0 mirrors slot 1, whose acting primary is world rank 1.
	r.ftm = &ftState{slot: 1, mirror: true, acting: []int{2, 1}}
	if err := bundle(1).merge(r); err != nil {
		t.Fatal(err)
	}
	if got := r.mirrorParts(); !slices.Equal(got, []int{0, 1, 3}) {
		t.Fatalf("mirrorParts = %v, want the pair's [0 1 3], those without pairs included", got)
	}
	if r.parts[0].Len() != 0 || r.parts[1].Len() != sent[0].Len() || r.parts[3].Len() != 0 {
		t.Fatalf("merged %d, %d, %d pairs into partitions 0, 1, 3, want 0, %d, 0", r.parts[0].Len(), r.parts[1].Len(), r.parts[3].Len(), sent[0].Len())
	}

	err := bundle(1, 2).merge(r)
	if err == nil || err.Error() != "core: shuffle block from comm rank 0: partition 2 is not held by world rank 1" {
		t.Fatalf("a run of a partition the pair does not hold: %v", err)
	}
}

// The merge checks the routing of what it is handed, each error naming the
// source: a route whose sender's outbox holds no run for the holder (the
// exchange would silently merge nothing), a route priced at other than its
// runs' framed length, a run of a partition the holder does not hold, and a
// run whose pairs are malformed. Each row fails with its check removed.
func TestMergeBundlesRefusesBadRoutes(t *testing.T) {
	r, _, sent := shuffleFixture(t, 4, 2)
	payload := kvBytes(sent[0])
	for _, tc := range []struct {
		name string
		in   func(in *inbox)
		want string
	}{
		{"no run for the holder", func(in *inbox) {
			in.from(2, 3, run{part: 3, payload: payload})
		}, "core: shuffle block from comm rank 2: its outbox holds no run for world rank 0"},
		{"priced below its frames", func(in *inbox) {
			in.from(2, 0, run{part: 0, payload: payload})
			in.recv[1].Size--
		}, fmt.Sprintf("core: shuffle block from comm rank 2 is priced at %d bytes, but its runs frame to %d", frameHdrLen+len(payload)-1, frameHdrLen+len(payload))},
		{"priced above its frames", func(in *inbox) {
			in.from(2, 0, run{part: 0, payload: payload}, run{part: 0, payload: payload})
			in.recv[1].Size += frameHdrLen
		}, fmt.Sprintf("core: shuffle block from comm rank 2 is priced at %d bytes, but its runs frame to %d", 3*frameHdrLen+2*len(payload), 2*frameHdrLen+2*len(payload))},
		{"partition not held", func(in *inbox) {
			in.from(2, 0, run{part: 0, payload: payload}, run{part: 1, payload: payload})
		}, "core: shuffle block from comm rank 2: partition 1 is not held by world rank 0"},
		{"malformed pairs", func(in *inbox) {
			in.from(2, 0, run{part: 0, payload: payload[:len(payload)-1]})
		}, "core: shuffle block from comm rank 2, partition 0: kvbuf: truncated pair body"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A good route from comm rank 1 first: the bad one is refused
			// wherever it lies.
			in := &inbox{}
			in.from(1, 0, run{part: 0, payload: payload})
			tc.in(in)
			if err := in.merge(r); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestExchangeHandsOverSenderValues: over a live exchange under the
// replication model — four slots whose primaries route to each other and to
// the live shadows of the slots they route to — every receiver's vals[src]
// is the very outbox src passed, for every source it lists, shadow-copy
// routes included, and each shadow, which lists the sources its pair lists,
// merges what its pair merges, byte for byte.
func TestExchangeHandsOverSenderValues(t *testing.T) {
	const p, w = 4, 8
	ftm := &ftState{acting: []int{0, 1, 2, 3}, shadow: []int{4, 5, 6, 7}}
	passed := make([]*outbox, w)
	got := make([]inbox, w)
	merged := make([]map[int][]byte, w)
	clus := launchShuffle(t, w, func(r *runner) {
		me := r.myWorld()
		f := *ftm
		f.slot, f.mirror = me%p, me >= p
		r.ftm = &f
		owners := make([]int32, w)
		for part := range owners {
			owners[part] = int32(part % p)
		}
		r.partOwner = denseOwners(owners...)
		var send []mpi.Block
		if !r.mirroring() {
			for part := range w {
				for i := range me + 1 {
					r.log.Add(keyIn(part, w, i), []byte{byte(me)})
				}
			}
			var err error
			if passed[me], send, err = r.sendBundles(); err != nil {
				t.Error(err)
				return
			}
			send = r.withShadowCopies(send)
		}
		recv, vals, err := r.comm.AlltoallvSparse(passed[me], send)
		if err == nil {
			err = r.mergeBundles(recv, vals)
		}
		if err != nil {
			t.Errorf("rank %d: %v", me, err)
			return
		}
		got[me] = inbox{recv: recv, vals: vals}
		merged[me] = make(map[int][]byte)
		for part, kv := range r.parts {
			merged[me][part] = kvBytes(kv)
		}
	})
	clus.Sim.Run()
	for d := range w {
		var srcs []int
		for _, b := range got[d].recv {
			srcs = append(srcs, int(b.Peer))
			if box, _ := got[d].vals[b.Peer].(*outbox); box == nil || box != passed[b.Peer] {
				t.Errorf("rank %d holds %p from comm rank %d, which passed %p", d, box, b.Peer, passed[b.Peer])
			}
		}
		if !slices.Equal(srcs, []int{0, 1, 2, 3}) {
			t.Errorf("rank %d lists sources %v, want every primary", d, srcs)
		}
		if d >= p && !maps.EqualFunc(merged[d], merged[d-p], bytes.Equal) {
			t.Errorf("shadow %d merged other partitions than its pair %d", d, d-p)
		}
	}
}

// shuffleBytes returns the bytes one shuffle — runner.exchange (the outbox,
// the routes and the exchange) and mergeBundles — allocates in a W=w world
// whose ranks each emit the same pairs pairs, of one size, round-robin over
// the partitions of the k ranks after them: what is allocated between an
// instant when every rank sleeps before the shuffle and one when every rank
// sleeps after it, the least of three runs. Only the blocks, k per rank,
// change with k: the arena, the log and the merged partitions are the same
// bytes.
func shuffleBytes(tb testing.TB, w, k, pairs int) uint64 {
	keys := make([][]byte, w) // by partition: keys of one length
	for j, left := 0, w; left > 0; j++ {
		key := []byte(fmt.Sprintf("k%07d", j))
		if part := kvbuf.PartitionKey(key, w); keys[part] == nil {
			keys[part], left = key, left-1
		}
	}
	least := uint64(math.MaxUint64)
	for rep := 0; rep < 3; rep++ {
		clus := launchShuffle(tb, w, func(r *runner) {
			me := r.myWorld()
			for i := range pairs {
				r.log.Add(keys[(me+1+i%k)%w], []byte{1})
			}
			r.p.Sleep(time.Second)
			recv, vals, err := r.exchange()
			if err == nil {
				err = r.mergeBundles(recv, vals)
			}
			if err != nil || len(recv) != k {
				tb.Errorf("rank %d: %d routes received, want %d: %v", me, len(recv), k, err)
			}
			r.p.Sleep(2*time.Second - r.p.Now())
		})
		var at [2]runtime.MemStats
		for i := range at {
			clus.Sim.After(time.Duration(i)*time.Second+time.Second/2, func() { runtime.ReadMemStats(&at[i]) })
		}
		clus.Sim.Run()
		least = min(least, at[1].TotalAlloc-at[0].TotalAlloc)
	}
	return least
}

// TestShuffleBytesPerBlock is the shuffle's per-block allocation gate (make
// alloc-gate): what one more block — one (sender, receiver) pair — costs the
// host, the payload arena and the merged partitions excluded, measured as the
// slope of shuffleBytes between 8 and 64 blocks a rank at W=128. A block is
// a route in the send list (8 B), one in the exchange's dealt slice (8 B), a
// run descriptor in the outbox (16 B) and the touched partition's entry in
// the counting sort's size table (4 B): 36 B, as measured on amd64. When
// each block was a boxed per-destination value — a 32-B run with its payload
// slice, a list header behind the value and two 32-B blocks — it measured
// 138 B.
func TestShuffleBytesPerBlock(t *testing.T) {
	const w, few, many, pairs = 128, 8, 64, 512
	a, b := shuffleBytes(t, w, few, pairs), shuffleBytes(t, w, many, pairs)
	perBlock := (float64(b) - float64(a)) / float64(w*(many-few))
	t.Logf("one shuffle allocates %d B at %d blocks a rank, %d B at %d: %.1f B per block", a, few, b, many, perBlock)
	if perBlock > 40 {
		t.Fatalf("one shuffle allocates %.1f B per block, want at most 40", perBlock)
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
// second copies every payload, in route order, into a buffer that already
// has the room (KV.Grow + KV.AppendBytes). A route carries its outbox's runs
// for comm rank dest, found by a walk over every run. It returns each held
// partition's encoding.
func copyingMerge(held []int, in *inbox, dest int32) map[int][]byte {
	runs := func(b mpi.Block) (box *outbox, out []partRun) {
		box = in.vals[b.Peer].(*outbox)
		for _, run := range box.runs {
			if run.dest == dest {
				out = append(out, run)
			}
		}
		return box, out
	}
	sizes := make(map[int]int, len(held))
	for _, b := range in.recv {
		_, rs := runs(b)
		for _, run := range rs {
			sizes[int(run.part)] += int(run.end - run.off)
		}
	}
	out := make(map[int][]byte, len(held))
	for _, part := range held {
		out[part] = make([]byte, 0, sizes[part])
	}
	for _, b := range in.recv {
		box, rs := runs(b)
		for _, run := range rs {
			out[int(run.part)] = append(out[int(run.part)], box.arena[run.off:run.end]...)
		}
	}
	return out
}

// checkMerge merges in into r, whose holder is world rank holder, and holds
// every partition r holds to copyingMerge's: the same snapshot frame and the
// same KMV, byte for byte.
func checkMerge(t *testing.T, what string, r *runner, held []int, holder int, in *inbox) {
	t.Helper()
	want := copyingMerge(held, in, int32(r.comm.CommRankOf(holder)))
	if err := in.merge(r); err != nil {
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
// 4 KiB, empty partitions, and a shadow's copies of the same routes: a
// mirroring shadow merges the very arenas its pair merges, and neither merge
// writes a byte of them.
func TestMergeBundlesMatchesCopyingMerge(t *testing.T) {
	lens := []int{0, 9, 100, 1000, storage.ShareMin - 1, storage.ShareMin, storage.ShareMin + 1, 3 * storage.ShareMin, 20000}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const w = 4
		// The shadow, world rank 2, mirrors slot 1, whose acting primary is
		// world rank 0: it holds what the primary holds, by the same table.
		primary, shadow := rankZero(t, w), rankAt(t, w, 2)
		nParts := 1 + rng.Intn(12)
		primary.nParts, shadow.nParts = nParts, nParts
		owners := make([]int32, nParts)
		for part := range owners {
			owners[part] = int32(rng.Intn(w))
		}
		primary.partOwner, shadow.partOwner = denseOwners(owners...), denseOwners(owners...)
		shadow.ftm = &ftState{slot: 1, mirror: true, acting: []int{1, 0}}
		held := primary.ownedParts()
		in := &inbox{}
		for src := range w {
			var runs []run
			for _, part := range held {
				if n := lens[rng.Intn(len(lens))]; n > 0 {
					runs = append(runs, run{part: int32(part), payload: pairsOf(rng, n)})
				}
			}
			if runs != nil {
				in.from(src, 0, runs...)
			}
		}
		sent := make([][]byte, len(in.recv))
		for i, b := range in.recv {
			sent[i] = bytes.Clone(in.vals[b.Peer].(*outbox).arena)
		}
		for _, r := range []*runner{primary, shadow} {
			checkMerge(t, fmt.Sprintf("seed %d", seed), r, held, 0, in)
		}
		for i, b := range in.recv {
			if !bytes.Equal(in.vals[b.Peer].(*outbox).arena, sent[i]) {
				t.Fatalf("seed %d: the merges wrote into the outbox of rank %d", seed, b.Peer)
			}
		}
	}
}

// Property (the price oracle): over random map-output logs, world sizes and
// ownership maps — partitions no comm rank owns, and replicate pairings whose
// live shadows get copies of their primaries' routes — every route the
// exchange is handed leads to its sender's outbox holding, for its
// destination's partitions that hold pairs, those pairs in ascending
// partition order, and is priced at the length of the frameShuffle frames
// encodeFrame builds over them: a header per partition plus its pairs. Each
// destination then merges what every sender routed to it into what the
// copying merge builds.
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
		recv, vals := make([]inbox, w), make([]any, w) // by destination comm rank; by source
		for d := range recv {
			recv[d].vals = vals
		}
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
			box, send, err := r.sendBundles()
			if err != nil {
				t.Fatal(err)
			}
			send, vals[src] = r.withShadowCopies(send), box
			i := 0
			for d := range w {
				var want []byte
				for part, o := range owners {
					if int(o) == holder(d) && byPart[part].Len() > 0 {
						want = encodeFrame(want, frameShuffle, uint32(part), 0, byPart[part].Pieces(nil)...)
					}
				}
				if want == nil {
					if i < len(send) && int(send[i].Peer) == d {
						t.Fatalf("seed %d, sender %d: a route to comm rank %d, which is sent nothing", seed, src, d)
					}
					continue
				}
				if i == len(send) || int(send[i].Peer) != d {
					t.Fatalf("seed %d, sender %d: no route to comm rank %d", seed, src, d)
				}
				b, got := send[i], framed(box, int32(holder(d)))
				if int(b.Size) != len(want) || !bytes.Equal(got, want) {
					t.Fatalf("seed %d, sender %d: the route to comm rank %d is priced at %d B, its frames are %d B; want %d B of frames",
						seed, src, d, b.Size, len(got), len(want))
				}
				recv[d].recv = append(recv[d].recv, mpi.Block{Peer: int32(src), Size: b.Size})
				i++
			}
			if i != len(send) {
				t.Fatalf("seed %d, sender %d: %d routes, want %d", seed, src, len(send), i)
			}
		}
		for d := range w {
			if holder(d) < 0 {
				continue
			}
			// The receiver at world rank d: a primary, or a shadow mirroring
			// d's slot.
			rcv := rankAt(t, w, d)
			if ftm != nil && d >= p {
				rcv.ftm = &ftState{slot: d - p, mirror: true, acting: ftm.acting}
			}
			rcv.nParts, rcv.partOwner = nParts, denseOwners(owners...)
			checkMerge(t, fmt.Sprintf("seed %d, comm rank %d", seed, d), rcv, rcv.partsOf(holder(d)), holder(d), &recv[d])
		}
	}
}

// longFrames is the shuffle's receive side shaped like wc-data: senders
// routes of one run each, for partition 0 of a senders-rank world, whose
// payloads are size bytes of pairs.
func longFrames(tb testing.TB, senders, size int) (*runner, *inbox) {
	r := rankZero(tb, senders)
	rng := rand.New(rand.NewSource(int64(size)))
	in := &inbox{}
	for i := range senders {
		in.from(i, 0, run{part: 0, payload: pairsOf(rng, size)})
	}
	return r, in
}

// TestMergeReferencesLongFrames is the merge's allocation gate (`make
// alloc-gate`): 16 runs of 128 KiB reach a partition as 16 pieces by
// reference, so merging them allocates under 1 % of their 2 MiB — a
// partition table, piece lists and the tables the walks size — where copying
// them allocated all of it.
func TestMergeReferencesLongFrames(t *testing.T) {
	const senders, size = 16, 128 << 10
	r, in := longFrames(t, senders, size)
	var m0, m1 runtime.MemStats
	alloc := uint64(math.MaxUint64)
	for range 5 { // the least of a few: the runtime's rare allocations land in one
		runtime.ReadMemStats(&m0)
		if err := in.merge(r); err != nil {
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
		if _, _, err := r.sendBundles(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergeBundles(b *testing.B) {
	b.Run("640x64", func(b *testing.B) {
		r, in, _ := shuffleFixture(b, 640, 64)
		benchmarkMerge(b, r, in)
	})
	b.Run("16x130KB", func(b *testing.B) {
		r, in := longFrames(b, 16, 130000)
		benchmarkMerge(b, r, in)
	})
}

func benchmarkMerge(b *testing.B, r *runner, in *inbox) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := in.merge(r); err != nil {
			b.Fatal(err)
		}
	}
}
