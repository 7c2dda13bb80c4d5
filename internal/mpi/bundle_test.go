package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"ftmrmpi/internal/metrics"
)

// The reference tree: Barrier, Allgather and AllreduceInt64 as the
// message-level binomial trees production code used to simulate, over plain
// point-to-point sends and receives, carrying the rank→payload map encoded,
// decoded and re-encoded at every tree level. The collectives (coll.go) are
// priced from this tree instead of simulating it, and must release every
// rank at exactly the instant it does, with the same result.

// internalTag is the reference tree's tag for collective op seq and substep:
// negative, so it never meets a user tag.
func internalTag(seq, sub int) int { return -(seq*16 + sub + 1000) }

// treeParent returns the parent of rank vr in the binomial tree rooted at
// rank 0, or -1 for the root.
func treeParent(vr int) int {
	if vr == 0 {
		return -1
	}
	return vr &^ (1 << uint(bits.TrailingZeros(uint(vr)))) // clear the lowest set bit
}

// treeChildren returns the children of rank vr in the binomial tree over n
// ranks rooted at rank 0.
func treeChildren(vr, n int) []int {
	var kids []int
	lsb := bits.TrailingZeros(uint(vr))
	if vr == 0 {
		lsb = bits.Len(uint(n)) // root may own all bits
	}
	for b := 0; b < lsb; b++ {
		if child := vr | 1<<uint(b); child < n && child != vr {
			kids = append(kids, child)
		}
	}
	return kids
}

// refEncodeBundle is the wire form of a set of per-rank payloads:
// [count u32]([rank u32][len u32][payload])*, big-endian, ascending by rank.
func refEncodeBundle(b map[int][]byte) []byte {
	total := 4
	for _, d := range b {
		total += 8 + len(d)
	}
	out := make([]byte, 0, total)
	out = binary.BigEndian.AppendUint32(out, uint32(len(b)))
	maxRank := -1
	for r := range b {
		maxRank = max(maxRank, r)
	}
	for r := 0; r <= maxRank; r++ {
		if d, ok := b[r]; ok {
			out = binary.BigEndian.AppendUint32(out, uint32(r))
			out = binary.BigEndian.AppendUint32(out, uint32(len(d)))
			out = append(out, d...)
		}
	}
	return out
}

func refDecodeBundle(data []byte) (map[int][]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("mpi: short bundle")
	}
	count := int(binary.BigEndian.Uint32(data[:4]))
	data = data[4:]
	out := make(map[int][]byte, count)
	for i := 0; i < count; i++ {
		if len(data) < 8 {
			return nil, fmt.Errorf("mpi: truncated bundle entry")
		}
		r := int(binary.BigEndian.Uint32(data[:4]))
		l := int(binary.BigEndian.Uint32(data[4:8]))
		data = data[8:]
		if len(data) < l {
			return nil, fmt.Errorf("mpi: truncated bundle payload")
		}
		out[r] = data[:l:l]
		data = data[l:]
	}
	return out, nil
}

// refGatherTree gathers every rank's payload to rank 0: each rank merges its
// children's bundles into its own entry and forwards the lot to its parent.
// Rank 0 returns the whole communicator's payloads.
func refGatherTree(c *Comm, seq int, data []byte) (map[int][]byte, error) {
	bundle := map[int][]byte{c.rank: data}
	for _, child := range treeChildren(c.rank, c.Size()) {
		m, err := c.recv(child, internalTag(seq, 2))
		if err != nil {
			return nil, err
		}
		sub, err := refDecodeBundle(m.Val.([]byte))
		if err != nil {
			return nil, err
		}
		maps.Copy(bundle, sub)
	}
	if parent := treeParent(c.rank); parent >= 0 {
		enc := refEncodeBundle(bundle)
		return nil, c.transmit(parent, internalTag(seq, 2), enc, len(enc))
	}
	return bundle, nil
}

// refBcastTree broadcasts rank 0's data down the tree.
func refBcastTree(c *Comm, seq int, data []byte) ([]byte, error) {
	if parent := treeParent(c.rank); parent >= 0 {
		m, err := c.recv(parent, internalTag(seq, 1))
		if err != nil {
			return nil, err
		}
		data = m.Val.([]byte)
	}
	for _, child := range treeChildren(c.rank, c.Size()) {
		if err := c.transmit(child, internalTag(seq, 1), data, len(data)); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// nextSeq consumes the caller's collective sequence number, which tags the
// reference tree's messages.
func nextSeq(c *Comm) int {
	c.st.opSeq[c.rank]++
	return c.st.opSeq[c.rank] - 1
}

func refBarrier(c *Comm) error {
	seq := nextSeq(c)
	if _, err := refGatherTree(c, seq, nil); err != nil {
		return err
	}
	_, err := refBcastTree(c, seq, nil)
	return err
}

func refAllgather(c *Comm, data []byte) ([][]byte, error) {
	seq := nextSeq(c)
	gathered, err := refGatherTree(c, seq, data)
	if err != nil {
		return nil, err
	}
	var enc []byte
	if c.rank == 0 {
		enc = refEncodeBundle(gathered)
	}
	if enc, err = refBcastTree(c, seq, enc); err != nil {
		return nil, err
	}
	bundle, err := refDecodeBundle(enc)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, c.Size())
	for r, d := range bundle {
		out[r] = d
	}
	return out, nil
}

// refAllreduceInt64 allgathers 8 bytes per rank and folds them on every
// rank, its own value first.
func refAllreduceInt64(c *Comm, v int64, op func(a, b int64) int64) (int64, error) {
	all, err := refAllgather(c, binary.BigEndian.AppendUint64(nil, uint64(v)))
	if err != nil {
		return 0, err
	}
	acc := v
	for r, d := range all {
		if r != c.rank {
			acc = op(acc, int64(binary.BigEndian.Uint64(d)))
		}
	}
	return acc, nil
}

// Property: the reference codec round-trips any set of payloads, nil and
// empty ones included.
func TestPropBundleRoundTrip(t *testing.T) {
	f := func(payloads [][]byte) bool {
		in := make(map[int][]byte, len(payloads))
		for r, d := range payloads {
			in[r] = d
		}
		out, err := refDecodeBundle(refEncodeBundle(in))
		if err != nil || len(out) != len(in) {
			return false
		}
		for r, d := range in {
			if got, ok := out[r]; !ok || !bytes.Equal(got, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// randomPayloads draws n payloads: nil, empty, small and large ones.
func randomPayloads(rng *rand.Rand, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		switch rng.Intn(5) {
		case 0: // nil
		case 1:
			out[i] = []byte{}
		case 2:
			out[i] = make([]byte, 1+rng.Intn(16))
		case 3:
			out[i] = make([]byte, 1+rng.Intn(4<<10))
		default:
			out[i] = make([]byte, 1+rng.Intn(64<<10))
		}
		rng.Read(out[i])
	}
	return out
}

// collRun is what one rank observed of a Barrier, an Allgather, an
// AllreduceInt64 and an AllgatherFold run back to back.
type collRun struct {
	done   [4]time.Duration // when each returned
	all    [][]byte         // the Allgather's result
	sum    int64            // the AllreduceInt64's result
	folded *foldSum         // the AllgatherFold's result
}

// foldSum is the AllgatherFold the collective runs compare: how many
// payloads were gathered, their total length, and the sum of their lengths
// and first bytes each weighted by its comm rank.
type foldSum struct{ n, bytes, weighted int }

// sumFold folds payloads that are byte slices, whether they arrived as the
// reference tree's messages or as the values an AllgatherFold gathered.
func sumFold[T any](all []T) any {
	f := &foldSum{n: len(all)}
	for r, v := range all {
		d := any(v).([]byte)
		f.bytes += len(d)
		f.weighted += r * len(d)
		if len(d) > 0 {
			f.weighted += r * int(d[0])
		}
	}
	return f
}

// runColls launches n ranks that each sleep skew[i][r] before collective i
// of a Barrier, an Allgather of mine[r], an AllreduceInt64 (sum) of vals[r]
// and an AllgatherFold (sumFold) of mine[r], declared at its length, run
// through the cost model or the reference tree — where the fold is an
// Allgather each rank folds itself.
// It returns what every rank saw and the point-to-point messages sent in
// total.
func runColls(t *testing.T, ref bool, n int, skew [4][]time.Duration, mine [][]byte, vals []int64) ([]collRun, float64) {
	t.Helper()
	clus := testCluster((n+7)/8, 8)
	clus.Metrics = metrics.New(clus.Sim)
	runs := make([]collRun, n)
	sum := func(a, b int64) int64 { return a + b }
	Launch(clus, n, func(c *Comm) {
		r, run := c.Rank(), &runs[c.Rank()]
		var err [4]error
		for i := range skew {
			c.Proc().Sleep(skew[i][r])
			switch {
			case i == 0 && ref:
				err[i] = refBarrier(c)
			case i == 0:
				err[i] = c.Barrier()
			case i == 1 && ref:
				run.all, err[i] = refAllgather(c, mine[r])
			case i == 1:
				run.all, err[i] = c.Allgather(mine[r])
			case i == 2 && ref:
				run.sum, err[i] = refAllreduceInt64(c, vals[r], sum)
			case i == 2:
				run.sum, err[i] = c.AllreduceInt64(vals[r], sum)
			case ref:
				var all [][]byte
				if all, err[i] = refAllgather(c, mine[r]); err[i] == nil {
					run.folded = sumFold(all).(*foldSum)
				}
			default:
				var folded any
				if folded, err[i] = c.AllgatherFold(mine[r], len(mine[r]), sumFold[any]); err[i] == nil {
					run.folded = folded.(*foldSum)
				}
			}
			if err[i] != nil {
				t.Errorf("rank %d collective %d (reference %v): %v", r, i, ref, err[i])
				return
			}
			run.done[i] = c.Proc().Now()
		}
	})
	clus.Sim.Run()
	if st := clus.Sim.Stranded(); len(st) != 0 {
		t.Fatalf("stranded procs: %v", st)
	}
	return runs, clus.Metrics.Snapshot().Total("ftmr_mpi_sends")
}

// Property: over random communicator sizes, entry skews and payloads (nil,
// empty and up to 64 KiB), Barrier, Allgather, AllreduceInt64 and
// AllgatherFold release every rank at exactly the instant the message-level
// reference tree does, with the same result, and send no point-to-point
// message doing it. The fold is priced as the Allgather of its payloads, and
// every rank receives the one value it computed.
func TestCollectivesMatchReferenceTree(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(97)
		var skew [4][]time.Duration
		for i := range skew {
			skew[i] = make([]time.Duration, n)
			for r := range skew[i] {
				if rng.Intn(2) == 0 {
					skew[i][r] = time.Duration(rng.Intn(500)) * time.Microsecond
				}
			}
		}
		mine := randomPayloads(rng, n)
		vals := make([]int64, n)
		var total int64
		for r := range vals {
			vals[r] = rng.Int63() - rng.Int63()
			total += vals[r]
		}
		want, refSends := runColls(t, true, n, skew, mine, vals)
		got, sends := runColls(t, false, n, skew, mine, vals)
		if sends != 0 || (n > 1 && refSends == 0) {
			t.Fatalf("seed %d W=%d: the cost model sent %v messages (the reference %v), want none", seed, n, sends, refSends)
		}
		for r := 0; r < n; r++ {
			if got[r].done != want[r].done {
				t.Fatalf("seed %d W=%d rank %d: barrier, allgather, allreduce, fold complete at %v, reference at %v",
					seed, n, r, got[r].done, want[r].done)
			}
			if len(got[r].all) != n || len(want[r].all) != n {
				t.Fatalf("seed %d W=%d rank %d: %d payloads, reference %d", seed, n, r, len(got[r].all), len(want[r].all))
			}
			for i := range mine {
				if !bytes.Equal(got[r].all[i], mine[i]) || !bytes.Equal(want[r].all[i], mine[i]) {
					t.Fatalf("seed %d W=%d rank %d: allgather entry %d is not rank %d's payload", seed, n, r, i, i)
				}
			}
			if got[r].sum != total || want[r].sum != total {
				t.Fatalf("seed %d W=%d rank %d: allreduce = %d (reference %d), want %d", seed, n, r, got[r].sum, want[r].sum, total)
			}
			if *got[r].folded != *want[r].folded || got[r].folded != got[0].folded {
				t.Fatalf("seed %d W=%d rank %d: fold = %+v at %p (reference %+v), rank 0's at %p: want the reference's value, one for every rank",
					seed, n, r, *got[r].folded, got[r].folded, *want[r].folded, got[0].folded)
			}
		}
	}
}

// AllgatherFold calls its fold exactly once per completed meeting, on the
// gathered values in comm rank order, and every rank receives that one
// result. A death inside the gather aborts the meeting without a call; the
// retry on the shrunken communicator calls it once.
func TestAllgatherFoldRunsOncePerMeeting(t *testing.T) {
	const n, victim = 64, 5
	clus := testCluster(n/8, 8)
	var calls [3]int    // fold calls per round
	var got [3][]any    // each round's results, by world rank
	var sizes [3]int    // how many values each round's fold saw
	var ordered [3]bool // whether they came in comm rank order
	fold := func(round int) func(all []any) any {
		return func(all []any) any {
			calls[round]++
			sizes[round] = len(all)
			ordered[round] = true
			for i := 1; i < len(all); i++ {
				ordered[round] = ordered[round] && all[i-1].(int) < all[i].(int)
			}
			return new(int)
		}
	}
	for i := range got {
		got[i] = make([]any, n)
	}
	w := Launch(clus, n, func(c *Comm) {
		c.SetErrHandler(func(*Comm, error) {})
		me := c.WorldRank(c.Rank())
		v, err := c.AllgatherFold(me, 1, fold(0))
		if err != nil {
			t.Errorf("rank %d, round 0: %v", me, err)
			return
		}
		got[0][me] = v
		if me == victim {
			c.Proc().Sleep(time.Hour) // dies before entering round 1
		}
		if _, err = c.AllgatherFold(me, 1, fold(1)); !IsProcFailed(err) {
			t.Errorf("rank %d, round 1: %v, want a process failure", me, err)
			return
		}
		nc, err := c.Shrink()
		if err != nil {
			t.Errorf("rank %d: shrink: %v", me, err)
			return
		}
		if got[2][me], err = nc.AllgatherFold(me, 1, fold(2)); err != nil {
			t.Errorf("rank %d, round 2: %v", me, err)
		}
	})
	clus.Sim.After(time.Second, func() { w.Kill(victim) })
	clus.Sim.Run()
	if st := clus.Sim.Stranded(); len(st) != 0 {
		t.Fatalf("stranded procs: %v", st)
	}
	if calls != [3]int{1, 0, 1} || sizes[0] != n || sizes[2] != n-1 || !ordered[0] || !ordered[2] {
		t.Fatalf("fold calls %v over %v payloads (in comm rank order: %v), want [1 0 1] over %d then %d",
			calls, sizes, ordered, n, n-1)
	}
	for _, round := range []int{0, 2} {
		for r, v := range got[round] {
			if dead := round == 2 && r == victim; (v == nil) != dead || (!dead && v != got[round][0]) {
				t.Fatalf("round %d: rank %d received %v, rank 0 %v: want one value for every live rank", round, r, v, got[round][0])
			}
		}
	}
}

// allgatherOnce launches n ranks that allgather 8 bytes each.
func allgatherOnce(tb testing.TB, n int) {
	clus := testCluster(n/8, 8)
	Launch(clus, n, func(c *Comm) {
		if _, err := c.Allgather([]byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
			tb.Error(err)
		}
	})
	clus.Sim.Run()
}

// BenchmarkAllgather is the layer benchmark of the tree collectives' host
// path: one 1024-rank Allgather of 8 bytes per rank, simulator set-up
// included (what ftmr-perf's mpi.probe.allgather_ns_per_rank times).
func BenchmarkAllgather(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		allgatherOnce(b, 1024)
	}
}

// The host cost of an Allgather, simulator set-up included, is linear in the
// rank count (make alloc-gate): every rank shares one result, where a
// W-entry slice per rank made it W².
func TestAllgatherAllocsAreLinear(t *testing.T) {
	var bytesAt [2]uint64
	for i, n := range []int{512, 1024} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allgatherOnce(t, n)
		runtime.ReadMemStats(&after)
		bytesAt[i] = after.TotalAlloc - before.TotalAlloc
	}
	ratio := float64(bytesAt[1]) / float64(bytesAt[0])
	t.Logf("one Allgather allocated %d bytes at W=512, %d at W=1024 (%.2fx)", bytesAt[0], bytesAt[1], ratio)
	if ratio >= 2.5 {
		t.Fatalf("doubling the ranks multiplied an Allgather's allocated bytes by %.2f, bound 2.5: its host cost is super-linear again", ratio)
	}
}
