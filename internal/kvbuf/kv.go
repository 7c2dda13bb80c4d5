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
)

// KV is an append-only buffer of key-value pairs with the wire encoding
// [klen u32][vlen u32][key][value].
//
// A KV is write-once: no method writes below its length. Add, Append,
// AppendBytes and Grow write only past it, into spare capacity or a new
// buffer, so what Bytes returned stays as it was however the KV grows. A
// checkpoint file keeps a partition snapshot's Bytes by reference on that
// contract (storage.Tier.AppendShared), as a KMV keeps views of the KV it
// converts. FromBytes wraps the data it is given, and the rule then binds
// every other holder of that buffer too.
type KV struct {
	buf []byte
	n   int
}

// NewKV returns an empty buffer.
func NewKV() *KV { return &KV{} }

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
func (b *KV) Size() int { return len(b.buf) }

// Bytes returns the encoded buffer (not a copy).
func (b *KV) Bytes() []byte { return b.buf }

// FromBytes wraps an encoded buffer produced by Bytes. It validates the
// framing and counts the pairs.
func FromBytes(data []byte) (*KV, error) {
	b := &KV{buf: data}
	if err := b.ForEach(func(k, v []byte) { b.n++ }); err != nil {
		return nil, err
	}
	return b, nil
}

// ForEach calls fn for every pair in insertion order. The slices alias the
// internal buffer and must not be retained.
func (b *KV) ForEach(fn func(k, v []byte)) error {
	data := b.buf
	for len(data) > 0 {
		if len(data) < 8 {
			return fmt.Errorf("kvbuf: truncated pair header")
		}
		kl := int(binary.LittleEndian.Uint32(data[:4]))
		vl := int(binary.LittleEndian.Uint32(data[4:8]))
		data = data[8:]
		if len(data) < kl+vl {
			return fmt.Errorf("kvbuf: truncated pair body (%d < %d)", len(data), kl+vl)
		}
		fn(data[:kl:kl], data[kl:kl+vl:kl+vl])
		data = data[kl+vl:]
	}
	return nil
}

// Append concatenates another buffer's pairs onto b.
func (b *KV) Append(other *KV) {
	b.buf = append(b.buf, other.buf...)
	b.n += other.n
}

// Grow reserves room for n more encoded bytes, so that appends up to that
// size do not reallocate.
func (b *KV) Grow(n int) { b.buf = slices.Grow(b.buf, n) }

// AppendBytes appends the pairs of an encoded buffer (as produced by Bytes)
// after validating its framing; on error b is unchanged. It is FromBytes +
// Append without the intermediate KV.
func (b *KV) AppendBytes(data []byte) error {
	src, n := KV{buf: data}, 0
	if err := src.ForEach(func(k, v []byte) { n++ }); err != nil {
		return err
	}
	b.buf = append(b.buf, data...)
	b.n += n
	return nil
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
	_ = b.ForEach(func(k, v []byte) {
		out[PartitionKey(k, nparts)].Add(k, v)
	})
	return out
}

// KMV is a grouped key→multivalue buffer: keys ascending by bytes.Compare,
// each key's values in the order its KV held them.
//
// A KMV made by ConvertTwoPass or ConvertFourPass copies nothing: every key
// and value is a capacity-limited view of the converted KV's buffer (as
// KV.ForEach yields them), and each Vals[i] a capacity-limited window of one
// shared slab, so appending to any of them reallocates instead of running
// into its neighbour. The KV may be appended to (Add, Append, AppendBytes,
// Grow) while the KMV is live, but its bytes must not be overwritten.
type KMV struct {
	Keys [][]byte
	Vals [][][]byte
}

// Len returns the number of distinct keys.
func (m *KMV) Len() int { return len(m.Keys) }

// Bytes returns the total payload size (keys + values).
func (m *KMV) Bytes() int {
	total := 0
	for i, k := range m.Keys {
		total += len(k)
		for _, v := range m.Vals[i] {
			total += len(v)
		}
	}
	return total
}

// ForEach visits each key group in order.
func (m *KMV) ForEach(fn func(key []byte, vals [][]byte)) {
	for i, k := range m.Keys {
		fn(k, m.Vals[i])
	}
}
