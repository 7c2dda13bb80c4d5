package kvbuf

import (
	"encoding/binary"
	"slices"
)

// Log block sizes: the first block holds minLogBlock bytes, each next one
// twice its predecessor up to maxLogBlock. A rank whose map output is a few
// pairs (640 ranks on a small input) pays one small block; one that emits
// megabytes pays a block per 256 KiB and never copies a byte twice.
const (
	minLogBlock = 4 << 10
	maxLogBlock = 256 << 10
)

// Log is an append-only log of pairs in KV's wire encoding, in the order they
// were added, held in blocks that are never moved or regrown: a block is
// allocated at its full size, pairs are written into it while the next one
// fits, and no pair spans two blocks — a pair larger than maxLogBlock gets a
// block of its own size. So every block is a run of whole pairs, and a view
// of the log (Since) still reads the same bytes after any number of later
// Adds: a checkpoint file keeps a map delta's pieces by reference on that
// rule (storage.Tier.AppendShared). The zero Log is empty and ready to use.
type Log struct {
	blocks [][]byte // the filled blocks, each capped at the bytes it holds
	tail   []byte   // the block being filled, at its full size
	end    int      // the bytes of tail in use
	n      int
	size   int
}

// Mark is a position in a Log, taken by Mark: what Since and SizeSince
// measure from. The zero Mark is the log's start.
type Mark struct {
	block, off int // block len(blocks) is the tail
	size       int
}

// Add appends one pair.
func (l *Log) Add(k, v []byte) {
	need := 8 + len(k) + len(v)
	if len(l.tail)-l.end < need {
		l.grow(need)
	}
	putPair(l.tail[l.end:l.end+need], k, v)
	l.end += need
	l.n++
	l.size += need
}

// grow starts a block with room for at least need bytes.
func (l *Log) grow(need int) {
	size := minLogBlock
	if l.tail != nil {
		l.blocks = append(l.blocks, l.tail[:l.end:l.end])
		size = min(2*len(l.tail), maxLogBlock)
	}
	l.tail, l.end = make([]byte, max(size, need)), 0
}

// Len returns the number of pairs.
func (l *Log) Len() int { return l.n }

// Size returns the encoded size in bytes.
func (l *Log) Size() int { return l.size }

// Mark returns the log's current end.
func (l *Log) Mark() Mark { return Mark{block: len(l.blocks), off: l.end, size: l.size} }

// SizeSince returns the encoded size of the pairs added after m.
func (l *Log) SizeSince(m Mark) int { return l.size - m.size }

// Since appends to dst the pairs added after m, as views of the log's blocks
// capped at their lengths (an append to one reallocates rather than writing
// into the log), and returns it. Each piece is a run of whole pairs, none is
// empty, and their concatenation is the pairs' KV encoding.
func (l *Log) Since(m Mark, dst [][]byte) [][]byte {
	dst = slices.Grow(dst, len(l.blocks)+1-m.block)
	off := m.off
	for _, b := range l.blocks[m.block:] {
		if b = b[off:]; len(b) > 0 {
			dst = append(dst, b)
		}
		off = 0
	}
	if t := l.tail[off:l.end:l.end]; len(t) > 0 {
		dst = append(dst, t)
	}
	return dst
}

// NextPair splits the pair at the head of data, a run of whole pairs as a
// Log piece or a KV's Bytes holds them, returning its key, its value and the
// bytes it occupies. The framing is trusted, not checked: the walk over a
// log's pieces is `for off := 0; off < len(piece); off += n`.
func NextPair(data []byte) (k, v []byte, n int) {
	kl := int(binary.LittleEndian.Uint32(data))
	vl := int(binary.LittleEndian.Uint32(data[4:]))
	n = 8 + kl + vl
	return data[8 : 8+kl : 8+kl], data[8+kl : n : n], n
}
