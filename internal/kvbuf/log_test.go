package kvbuf

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// The pieces since any mark, concatenated, are the suffix of the same pairs'
// KV encoding from that mark on; each piece is a non-empty run of whole pairs
// capped at its length, and the log's counts are the KV's. Pair sizes range
// from empty to past the largest block, so marks fall at block ends, inside
// blocks and on the empty log.
func TestLogSinceIsKVSuffix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var l Log
	kv := NewKV()
	type mark struct {
		m          Mark
		size, pair int
	}
	marks := []mark{{l.Mark(), 0, 0}}
	for i := 0; i < 3000; i++ {
		k := make([]byte, rng.Intn(12))
		v := make([]byte, rng.Intn(3)*rng.Intn(200))
		if rng.Intn(500) == 0 {
			v = make([]byte, maxLogBlock+rng.Intn(1000))
		}
		rng.Read(k)
		rng.Read(v)
		l.Add(k, v)
		kv.Add(k, v)
		if rng.Intn(20) == 0 {
			marks = append(marks, mark{l.Mark(), kv.Size(), kv.Len()})
		}
	}
	if l.Len() != kv.Len() || l.Size() != kv.Size() {
		t.Fatalf("log holds %d pairs in %d bytes, the KV %d in %d", l.Len(), l.Size(), kv.Len(), kv.Size())
	}
	for _, m := range marks {
		pieces := l.Since(m.m, nil)
		var pairs int
		for _, p := range pieces {
			if len(p) == 0 || cap(p) != len(p) {
				t.Fatalf("mark at byte %d: a piece of %d bytes with capacity %d", m.size, len(p), cap(p))
			}
			for off := 0; off < len(p); pairs++ {
				_, _, n := NextPair(p[off:])
				if off += n; off > len(p) {
					t.Fatalf("mark at byte %d: a pair runs past its piece", m.size)
				}
			}
		}
		if got := bytes.Join(pieces, nil); !bytes.Equal(got, flat(kv)[m.size:]) {
			t.Fatalf("mark at byte %d: pieces hold %d bytes that are not the KV's %d-byte suffix", m.size, len(got), kv.Size()-m.size)
		}
		if l.SizeSince(m.m) != kv.Size()-m.size || pairs != kv.Len()-m.pair {
			t.Fatalf("mark at byte %d: %d bytes and %d pairs since, want %d and %d", m.size, l.SizeSince(m.m), pairs, kv.Size()-m.size, kv.Len()-m.pair)
		}
	}
}

// Walking the log's pieces with NextPair yields the pairs KV.ForEach yields.
func TestLogWalkMatchesForEach(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var l Log
	kv := randomKV(rng, 2000, 300)
	kv.ForEach(l.Add)
	var want [][2]string
	kv.ForEach(func(k, v []byte) { want = append(want, [2]string{string(k), string(v)}) })
	i := 0
	for _, p := range l.Since(Mark{}, nil) {
		for off := 0; off < len(p); i++ {
			k, v, n := NextPair(p[off:])
			if i >= len(want) || string(k) != want[i][0] || string(v) != want[i][1] {
				t.Fatalf("pair %d: walk gives %q=%x", i, k, v)
			}
			off += n
		}
	}
	if i != len(want) {
		t.Fatalf("walk gives %d pairs, ForEach %d", i, len(want))
	}
}

// Blocks double from minLogBlock to maxLogBlock and are never moved: a view
// taken early still aliases the same bytes after the log has grown by
// megabytes. A pair larger than the block cap is a block of its own, and the
// block after it is a full-size one.
func TestLogBlocks(t *testing.T) {
	var l Log
	var sizes []int // of every block, as it is started
	add := func(k, v []byte) {
		tail := l.tail
		l.Add(k, v)
		if len(l.tail) != len(tail) || &l.tail[0] != &tail[0] {
			sizes = append(sizes, len(l.tail))
		}
	}
	v := make([]byte, 100)
	add([]byte("first"), v)
	first := l.Since(Mark{}, nil)[0]
	for l.Size() < 4<<20 {
		add([]byte("k"), v)
	}
	if got := l.Since(Mark{}, nil)[0]; &got[0] != &first[0] {
		t.Fatal("the first block moved")
	}
	for i, size := range sizes {
		if want := min(minLogBlock<<i, maxLogBlock); size != want {
			t.Fatalf("block %d holds %d bytes, want %d", i, size, want)
		}
	}
	m, blocks := l.Mark(), len(sizes)
	add([]byte("big"), make([]byte, maxLogBlock))
	add([]byte("k"), v)
	if want := []int{8 + 3 + maxLogBlock, maxLogBlock}; !slices.Equal(sizes[blocks:], want) {
		t.Fatalf("an oversized pair and one after it started blocks of %v bytes, want %v", sizes[blocks:], want)
	}
	pieces := l.Since(m, nil)
	if k, _, n := NextPair(pieces[len(pieces)-2]); string(k) != "big" || n != len(pieces[len(pieces)-2]) {
		t.Fatalf("the oversized pair is not alone in its piece")
	}
}
