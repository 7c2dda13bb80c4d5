// Package kvbuf implements the key-value machinery of the runner, for
// FT-MRMPI and for its MR-MPI baseline: append-only KV buffers, the pair Log
// a rank's map output is kept in, grouped key-multivalue (KMV) buffers, hash
// partitioning for the shuffle, and the two KV→KMV conversion algorithms the
// paper compares — the original four-pass algorithm of MR-MPI and
// FT-MRMPI's two-pass log-structured algorithm (§5.2). One grouping over real
// bytes serves both; an algorithm is its price list, the I/O statistics
// (bytes and operations touched per pass) that the runtime charges against
// the simulated disks, so Figure 16's performance gap is the difference in
// the data the two algorithms move.
// Neither algorithm's intermediate data is materialised: the two-pass
// segment log is priced, not written, exactly as the four passes are, and
// the grouping indexes the KV's own bytes (see group).
package kvbuf

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ftmrmpi/internal/storage"
)

// KV is an append-only sequence of key-value pairs with the wire encoding
// [klen u32][vlen u32][key][value], held as an ordered list of pieces: runs
// of whole pairs, each but the last a view capped at its length, then the
// buffer Add writes into. A KV built by Add or FromBytes is that one buffer;
// one assembled by AppendRun (a shuffle merge) holds each run of at least
// storage.ShareMin bytes by reference and copies the shorter ones.
//
// A KV is write-once: no method writes below its length. Add and AppendRun
// write only past it, into spare capacity or a new buffer, so what Pieces
// returned stays as it was however the KV grows. A checkpoint file keeps a
// partition snapshot's pieces by reference on that contract
// (storage.Tier.AppendShared), as a KMV keeps views of the KV it converts.
// FromBytes and AppendRun keep the data they are given, and the rule then
// binds every other holder of those bytes too.
type KV struct {
	pieces [][]byte // the runs before buf, each capped at its length
	buf    []byte   // the run Add and short AppendRuns write into
	held   int      // the bytes of pieces
	n      int
}

// NewKV returns an empty buffer.
func NewKV() *KV { return &KV{} }

// NewKVs returns len(room) empty KVs whose runs shorter than storage.ShareMin
// (AppendRun) are copied into one buffer they share: KV i owns room[i] bytes
// of it, capped, so a KV that outgrows its room reallocates instead of
// writing into its neighbour's.
func NewKVs(room []int) []KV {
	total := 0
	for _, n := range room {
		total += n
	}
	own, kvs := make([]byte, total), make([]KV, len(room))
	for i, n := range room {
		kvs[i].buf, own = own[:0:n], own[n:]
	}
	return kvs
}

// Add appends one pair: one capacity check (growth is Go's own, as append
// would do it), then header, key and value written in place.
func (b *KV) Add(k, v []byte) {
	off := len(b.buf)
	end := off + 8 + len(k) + len(v)
	if end > cap(b.buf) {
		b.buf = slices.Grow(b.buf, end-off)
	}
	b.buf = b.buf[:end]
	putPair(b.buf[off:], k, v)
	b.n++
}

// putPair writes one pair's encoding into dst, which has exactly its room.
func putPair(dst, k, v []byte) {
	binary.LittleEndian.PutUint32(dst, uint32(len(k)))
	binary.LittleEndian.PutUint32(dst[4:], uint32(len(v)))
	copy(dst[8:], k)
	copy(dst[8+len(k):], v)
}

// Len returns the number of pairs.
func (b *KV) Len() int { return b.n }

// Size returns the encoded size in bytes.
func (b *KV) Size() int { return b.held + len(b.buf) }

// Pieces appends to dst the KV's encoding as its pieces, in order, each a
// non-empty run of whole pairs capped at its length, and returns it. They
// are the KV's own bytes, not a copy.
func (b *KV) Pieces(dst [][]byte) [][]byte {
	dst = append(dst, b.pieces...)
	if len(b.buf) > 0 {
		dst = append(dst, b.buf[:len(b.buf):len(b.buf)])
	}
	return dst
}

// piece returns the p-th run of the KV, p <= len(b.pieces): the last is buf.
func (b *KV) piece(p int) []byte {
	if p < len(b.pieces) {
		return b.pieces[p]
	}
	return b.buf
}

// FromBytes wraps an encoded buffer, without a copy. It validates the
// framing and counts the pairs.
func FromBytes(data []byte) (*KV, error) {
	n, err := countPairs(data)
	if err != nil {
		return nil, err
	}
	return &KV{buf: data, n: n}, nil
}

// AppendRun appends data, a run of whole encoded pairs, after validating its
// framing; on error b is unchanged. A run of at least storage.ShareMin bytes
// becomes a piece of its own, a view capped at its length that the KV never
// writes into: the caller never writes below its length again. A shorter run
// is copied onto the KV's buffer, in place when it has the room (NewKVs).
func (b *KV) AppendRun(data []byte) error {
	n, err := countPairs(data)
	if err != nil {
		return err
	}
	b.n += n
	if len(data) < storage.ShareMin {
		b.buf = append(b.buf, data...)
		return nil
	}
	if l := len(b.buf); l > 0 {
		b.pieces = append(b.pieces, b.buf[:l:l])
		b.held += l
		b.buf = b.buf[l:]
	}
	b.pieces = append(b.pieces, data[:len(data):len(data)])
	b.held += len(data)
	return nil
}

// countPairs validates a run's framing and counts its pairs.
func countPairs(data []byte) (int, error) {
	n := 0
	for len(data) > 0 {
		if len(data) < 8 {
			return 0, fmt.Errorf("kvbuf: truncated pair header")
		}
		kl := int(binary.LittleEndian.Uint32(data[:4]))
		vl := int(binary.LittleEndian.Uint32(data[4:8]))
		data = data[8:]
		if len(data) < kl+vl {
			return 0, fmt.Errorf("kvbuf: truncated pair body (%d < %d)", len(data), kl+vl)
		}
		data = data[kl+vl:]
		n++
	}
	return n, nil
}

// ForEach calls fn for every pair in insertion order. The slices alias the
// KV's pieces and must not be retained.
func (b *KV) ForEach(fn func(k, v []byte)) {
	for p := 0; p <= len(b.pieces); p++ {
		piece := b.piece(p)
		for off := 0; off < len(piece); {
			k, v, n := NextPair(piece[off:])
			fn(k, v)
			off += n
		}
	}
}

// fnv1a is the package's one hash, 32-bit FNV-1a written out as a loop:
// hash/fnv's New32a costs an interface value and two dynamic calls per key
// for the same sum. PartitionKey takes it modulo the partition count, group's
// key index takes its top bits (slot).
func fnv1a(key []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range key {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// PartitionKey returns the shuffle partition for a key: FNV-1a hash modulo
// nparts. Every rank uses the same function, which is what lets the
// distributed masters assign reduce partitions without coordination.
func PartitionKey(key []byte, nparts int) int {
	return int(fnv1a(key) % uint32(nparts))
}

// Partition splits the buffer into nparts buffers by key hash.
func (b *KV) Partition(nparts int) []*KV {
	out := make([]*KV, nparts)
	for i := range out {
		out[i] = NewKV()
	}
	b.ForEach(func(k, v []byte) {
		out[PartitionKey(k, nparts)].Add(k, v)
	})
	return out
}

// KMV is a grouped key→multivalue buffer: keys ascending by bytes.Compare,
// each key's values in the order its KV held them.
//
// A KMV made by ConvertTwoPass or ConvertFourPass copies nothing and holds 4
// bytes per value and 4 per key: each value is an int32 offset of its pair in
// the converted KV's pieces, grouped by key, and starts is its one per-key
// table. A key is its first pair's key. Group resolves a key and its offsets
// into views of the pieces, the values into a window the caller reuses
// (Window), so the values a reader sees are valid only until it asks for the
// next key's. The KV may be appended to (Add, AppendRun) while the KMV is
// live, but its bytes must not be overwritten.
type KMV struct {
	starts   []int32  // key i's pairs are at offs[starts[i]:starts[i+1]], at least one
	offs     []int32  // pair offsets into the pieces' concatenation
	pieces   [][]byte // the encoding the offsets index
	base     []int32  // piece p starts at offset base[p]; base[len(pieces)] is the size
	keyBytes int
	valBytes int
	most     int // the largest group's value count
}

// Len returns the number of distinct keys.
func (m *KMV) Len() int { return max(len(m.starts)-1, 0) }

// Bytes returns the total payload size (keys + values).
func (m *KMV) Bytes() int { return m.keyBytes + m.valBytes }

// Window returns an empty value window with room for the largest group, so
// that Group never grows it.
func (m *KMV) Window() [][]byte { return make([][]byte, 0, m.most) }

// Group returns the i-th key and appends its values to dst, in KV order; the
// key and every value are views capped at their lengths.
func (m *KMV) Group(i int, dst [][]byte) (key []byte, vals [][]byte) {
	offs := m.offs[m.starts[i]:m.starts[i+1]]
	// The offsets ascend: find the first one's piece, then walk forward.
	p, found := slices.BinarySearch(m.base, offs[0])
	if !found {
		p--
	}
	for j, off := range offs {
		for off >= m.base[p+1] {
			p++
		}
		k, v, _ := NextPair(m.pieces[p][off-m.base[p]:])
		if j == 0 {
			key = k
		}
		dst = append(dst, v)
	}
	return key, dst
}

// ForEach visits each key group in order. vals is one window, refilled for
// every key: it is valid only until fn returns.
func (m *KMV) ForEach(fn func(key []byte, vals [][]byte)) {
	window := m.Window()
	for i := range m.Len() {
		fn(m.Group(i, window))
	}
}
