package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ftmrmpi/internal/metrics"
)

// The reference model of the tree collectives' wire: the rank→payload map
// that production code used to build, decode and re-encode at every tree
// level. The flat bundle codec must deliver the same payloads at the same
// virtual instants for the same bytes sent, and fail the same ranks the same
// way under ULFM.

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

func refGatherTree(c *Comm, seq int, data []byte, out [][]byte) error {
	bundle := map[int][]byte{c.rank: data}
	for _, child := range treeChildren(c.rank, c.Size()) {
		m, err := c.recv(child, internalTag(seq, 2))
		if err != nil {
			return err
		}
		sub, err := refDecodeBundle(m.Data)
		if err != nil {
			return err
		}
		for r, d := range sub {
			bundle[r] = d
		}
	}
	if parent := treeParent(c.rank); parent >= 0 {
		_, err := c.send(parent, internalTag(seq, 2), refEncodeBundle(bundle))
		return err
	}
	for r, d := range bundle {
		out[r] = d
	}
	return nil
}

func refAllgather(c *Comm, data []byte) ([][]byte, error) {
	defer c.enterColl("allgather").Exit()
	seq := c.nextSeq()
	n := c.Size()
	gathered := make([][]byte, n)
	if err := refGatherTree(c, seq, data, gathered); err != nil {
		return nil, c.raise(err)
	}
	var enc []byte
	if c.rank == 0 {
		bundle := make(map[int][]byte, n)
		for r, d := range gathered {
			bundle[r] = d
		}
		enc = refEncodeBundle(bundle)
	}
	enc, err := c.bcastTree(seq, enc)
	if err != nil {
		return nil, c.raise(err)
	}
	bundle, err := refDecodeBundle(enc)
	if err != nil {
		return nil, c.raise(err)
	}
	out := make([][]byte, n)
	for r, d := range bundle {
		out[r] = d
	}
	return out, nil
}

// allgatherFn is the implementation under comparison: (*Comm).Allgather or
// refAllgather.
type allgatherFn func(c *Comm, data []byte) ([][]byte, error)

// collRun is what one rank observed of an allgather.
type collRun struct {
	done time.Duration
	got  [][]byte
	err  error
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

// runTreeColls launches n ranks that sleep skew[r] and then run an allgather
// through impl. It returns what every rank saw and the bytes and messages
// sent in total.
func runTreeColls(t *testing.T, impl allgatherFn, n int, skew []time.Duration, mine [][]byte) ([]collRun, float64, float64) {
	t.Helper()
	clus := testCluster((n+7)/8, 8)
	clus.Metrics = metrics.New(clus.Sim)
	runs := make([]collRun, n)
	Launch(clus, n, func(c *Comm) {
		r, run := c.Rank(), &runs[c.Rank()]
		c.Proc().Sleep(skew[r])
		run.got, run.err = impl(c, mine[r])
		run.done = c.Proc().Now()
	})
	clus.Sim.Run()
	if st := clus.Sim.Stranded(); len(st) != 0 {
		t.Fatalf("stranded procs: %v", st)
	}
	snap := clus.Metrics.Snapshot()
	return runs, snap.Total("ftmr_mpi_send_bytes"), snap.Total("ftmr_mpi_sends")
}

// Property: over random communicator sizes, entry skews and payloads (nil and
// empty included), allgather over flat bundles releases every rank at exactly
// the instant the map-based reference does, with the same payloads, for the
// same number of messages and bytes.
func TestTreeCollectivesMatchReferenceModel(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(97)
		skew := make([]time.Duration, n)
		for r := range skew {
			if rng.Intn(2) == 0 {
				skew[r] = time.Duration(rng.Intn(500)) * time.Microsecond
			}
		}
		mine := randomPayloads(rng, n)
		want, wantBytes, wantSends := runTreeColls(t, refAllgather, n, skew, mine)
		got, gotBytes, gotSends := runTreeColls(t, (*Comm).Allgather, n, skew, mine)
		if gotBytes != wantBytes || gotSends != wantSends {
			t.Fatalf("seed %d W=%d: sent %v bytes in %v messages, reference %v in %v",
				seed, n, gotBytes, gotSends, wantBytes, wantSends)
		}
		for r := 0; r < n; r++ {
			if got[r].err != nil || want[r].err != nil {
				t.Fatalf("seed %d W=%d rank %d: error %v (reference %v)", seed, n, r, got[r].err, want[r].err)
			}
			if got[r].done != want[r].done {
				t.Fatalf("seed %d W=%d rank %d: completes at %v, reference at %v", seed, n, r, got[r].done, want[r].done)
			}
			g, w := got[r].got, want[r].got
			if len(g) != len(w) {
				t.Fatalf("seed %d W=%d rank %d: %d payloads, reference %d", seed, n, r, len(g), len(w))
			}
			for i := range g {
				if !bytes.Equal(g[i], w[i]) {
					t.Fatalf("seed %d W=%d rank %d: payload %d differs from the reference", seed, n, r, i)
				}
			}
			// The reference itself delivers what was put in.
			for i, d := range g {
				if !bytes.Equal(d, mine[i]) {
					t.Fatalf("seed %d W=%d rank %d: allgather entry %d is not rank %d's payload", seed, n, r, i, i)
				}
			}
		}
	}
}

// errClass names what a collective raised, as ULFM callers tell errors apart.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case IsProcFailed(err):
		return "proc-failed"
	case errors.Is(err, ErrRevoked):
		return "revoked"
	default:
		return "other: " + err.Error()
	}
}

// A member dead before the others enter, or killed while they are inside,
// fails the same ranks with the same error class at the same instants as in
// the reference model: the flat codec changed no message, so ULFM's local
// error reporting sees the same tree edges.
func TestTreeCollectivesFailLikeReferenceModel(t *testing.T) {
	type outcome struct {
		class string
		at    time.Duration
	}
	// The victim is picked by its position in the tree: an even rank,
	// whose first child — the straggler — enters 4 ms after everyone else. A
	// kill at 2 ms therefore finds the victim inside, waiting for that child,
	// and its own parent waiting for it.
	run := func(impl allgatherFn, n, victim, straggler int, killAt time.Duration) []outcome {
		clus := testCluster((n+7)/8, 8)
		res := make([]outcome, n)
		w := Launch(clus, n, func(c *Comm) {
			c.SetErrHandler(func(*Comm, error) {})
			r := c.Rank()
			c.Proc().Sleep(time.Millisecond)
			if r == straggler {
				c.Proc().Sleep(4 * time.Millisecond)
			}
			_, err := impl(c, []byte{byte(r)})
			res[r] = outcome{errClass(err), c.Proc().Now()}
			if err != nil {
				_ = c.Revoke() // release the ranks the broken tree left waiting
			}
		})
		clus.Sim.After(killAt, func() { w.Kill(victim) })
		clus.Sim.Run()
		if st := clus.Sim.Stranded(); len(st) != 0 {
			t.Fatalf("stranded procs: %v", st)
		}
		return res
	}
	for _, n := range []int{2, 5, 16, 37} {
		for _, killAt := range []time.Duration{0, 2 * time.Millisecond} {
			for _, victim := range []int{0, 2, (n / 2) &^ 1} {
				straggler := victim + 1
				if straggler >= n {
					continue
				}
				want := run(refAllgather, n, victim, straggler, killAt)
				got := run((*Comm).Allgather, n, victim, straggler, killAt)
				classes := make(map[string]int)
				for r := range got {
					if r == victim {
						continue
					}
					if got[r] != want[r] {
						t.Errorf("W=%d victim=%d killAt=%v rank %d: %+v, reference %+v", n, victim, killAt, r, got[r], want[r])
					}
					classes[got[r].class]++
				}
				if classes["proc-failed"] == 0 {
					t.Errorf("W=%d victim=%d killAt=%v: nobody saw the process failure: %v", n, victim, killAt, classes)
				}
			}
		}
	}
}

// bundleOf builds the decoder's test input: one entry per piece, piece i
// belonging to rank (first+i) mod n.
func bundleOf(pieces [][]byte, first, n int) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(pieces)))
	for i, d := range pieces {
		b = appendEntry(b, (first+i)%n, d)
	}
	return b
}

// A bundle from the wire never panics the decoder and never lands a payload
// twice or out of range.
func TestReadBundleRejectsMalformed(t *testing.T) {
	good := bundleOf([][]byte{[]byte("a"), nil, []byte("ccc")}, 0, 5)
	entry := func(rank int, p string) []byte { return appendEntry(nil, rank, []byte(p)) }
	count := func(n int, entries ...[]byte) []byte {
		b := binary.BigEndian.AppendUint32(nil, uint32(n))
		return append(b, bytes.Join(entries, nil)...)
	}
	cases := []struct {
		name string
		b    []byte
		slot int // len(out); 0 walks without decoding
		ok   bool
	}{
		{"good walk", good, 0, true},
		{"good decode", good, 3, true},
		{"short header", good[:3], 0, false},
		{"truncated entry", good[:len(good)-4], 0, false},
		{"truncated payload", good[:len(good)-1], 0, false},
		{"over-count", count(4, good[bundleHdrLen:]), 0, false},
		{"trailing bytes", append(bytes.Clone(good), 0), 0, false},
		{"rank out of range", count(1, entry(5, "x")), 0, false},
		{"rank past the slots", count(3, entry(0, "x"), entry(1, "y"), entry(3, "z")), 3, false},
		{"repeated rank", count(3, entry(0, "x"), entry(1, "y"), entry(0, "")), 3, false},
		{"wrong count", count(2, entry(0, "x"), entry(1, "y")), 3, false},
	}
	for _, tc := range cases {
		var out [][]byte
		if tc.slot > 0 {
			out = make([][]byte, tc.slot)
		}
		_, _, err := readBundle(tc.b, 5, out)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// FuzzDecodeBundle feeds arbitrary bytes to the bundle decoder: truncated,
// over-counted, out-of-range and repeated entries must come back as errors,
// never as a panic, and whatever decodes re-encodes to the same length.
func FuzzDecodeBundle(f *testing.F) {
	f.Add(bundleOf([][]byte{[]byte("abc"), nil, {}}, 0, 3), 3, 3)
	f.Add(bundleOf([][]byte{[]byte("x"), []byte("y")}, 6, 7), 7, 2)
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, 4, 2)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, 1, 1)
	f.Fuzz(func(t *testing.T, b []byte, n, slots int) {
		if n < 1 || n > 1<<10 || slots < 0 || slots > n {
			return
		}
		count, entries, err := readBundle(b, n, nil)
		if err == nil && bundleHdrLen+len(entries) != len(b) {
			t.Fatalf("walk accepted %d bytes of %d", bundleHdrLen+len(entries), len(b))
		}
		out := make([][]byte, slots)
		if _, _, derr := readBundle(b, n, out); derr == nil {
			if err != nil || count != slots {
				t.Fatalf("decoded %d slots from a bundle the walk counts as %d (walk error %v)", slots, count, err)
			}
			for i, d := range out {
				if d == nil {
					t.Fatalf("decode left slot %d empty", i)
				}
			}
			if re := bundleOf(out, 0, n); len(re) != len(b) {
				t.Fatalf("re-encoded to %d bytes, was %d", len(re), len(b))
			}
		}
	})
}

// BenchmarkAllgather is the layer benchmark of the tree collectives' host
// path: one 1024-rank Allgather of 8 bytes per rank, simulator set-up
// included (what ftmr-perf's mpi.probe.allgather_ns_per_rank times).
func BenchmarkAllgather(b *testing.B) {
	const n = 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clus := testCluster(n/8, 8)
		Launch(clus, n, func(c *Comm) {
			if _, err := c.Allgather([]byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
				b.Error(err)
			}
		})
		clus.Sim.Run()
	}
}
