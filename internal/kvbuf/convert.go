package kvbuf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// ConvertStats reports the data movement of a KV→KMV conversion algorithm.
// The MapReduce runtime charges these against the simulated local disk, so
// algorithms that touch the data more pay for it in virtual time.
type ConvertStats struct {
	Passes     int
	ReadBytes  int
	WriteBytes int
	ReadOps    int
	WriteOps   int
}

// Total returns total bytes moved.
func (s ConvertStats) Total() int { return s.ReadBytes + s.WriteBytes }

// add accumulates one sequential pass that reads readB and writes writeB bytes.
func (s *ConvertStats) add(readB, writeB int) {
	s.ReadBytes += readB
	s.WriteBytes += writeB
	s.ReadOps += opsFor(readB)
	s.WriteOps += opsFor(writeB)
	s.Passes++
}

// ConvertFourPass is the original MR-MPI KV→KMV conversion: four nested
// read-and-write passes over the intermediate data (paper §5.2: "reads and
// writes the intermediate data four times"). The four passes are charged,
// not executed: the KMV comes from the one grouping both algorithms share (in
// its order, aliasing kv: see ConvertTwoPass), and the statistics are
// fourPassStats of its sizes. The executed algorithm is refConvertFourPass
// in kv_test.go, which a property test holds this to.
func ConvertFourPass(kv *KV) (*KMV, ConvertStats) {
	m, _ := group(kv)
	return m, fourPassStats(kv.Size(), m)
}

// ConvertTwoPass is FT-MRMPI's log-structured two-pass conversion (§5.2):
// the first pass reads the pairs once, appending each value to its key's
// chain of fixed-size segments; the second merges each key's segments into
// one contiguous group. Data is touched twice instead of four times, and
// progress is trivially trackable per pass — the property the shuffle-phase
// tracing relies on. The log is priced, not materialised: the KMV comes from
// the one grouping both algorithms share, and the statistics are
// twoPassStats of the log's size. Keys come out ascending by bytes.Compare
// and each key's values in KV order, which is what the segment log yields;
// the KMV aliases kv (see KMV for what kv may not do while it is live).
func ConvertTwoPass(kv *KV) (*KMV, ConvertStats) {
	m, logBytes := group(kv)
	return m, twoPassStats(kv.Size(), logBytes)
}

// twoPassStats is the traffic of the two-pass algorithm over a KV of kvSize
// bytes whose segment log holds logBytes (every value behind a 4-byte
// length): pass 1 reads the KV and writes the log, pass 2 reads the log and
// rewrites it as contiguous groups.
func twoPassStats(kvSize, logBytes int) ConvertStats {
	var st ConvertStats
	st.add(kvSize, logBytes)
	st.add(logBytes, logBytes)
	return st
}

// fourPassStats is the traffic of MR-MPI's four-pass algorithm over a KV of
// kvSize bytes that groups into m:
//
//	pass 1: scan all pairs and spill a key-sorted copy;
//	pass 2: scan the sorted copy, writing the per-key skeleton (key bytes
//	        and an 8-byte header per key, a 4-byte slot per value);
//	pass 3: re-scan the sorted copy, scattering each value into its slot;
//	pass 4: compaction pass over the assembled KMV (read and rewrite).
func fourPassStats(kvSize int, m *KMV) ConvertStats {
	kmvBytes := m.Bytes()
	skeleton := m.keyBytes + 8*m.Len() + 4*len(m.offs)
	var st ConvertStats
	st.add(kvSize, kvSize)
	st.add(kvSize, skeleton)
	st.add(kvSize, kmvBytes-m.keyBytes)
	st.add(kmvBytes, kmvBytes)
	return st
}

// keyGroup is one distinct key of a grouping: its first occurrence in the
// KV, its hash, and its value count — from pass 2 on, the slab index its
// next value goes to.
type keyGroup struct {
	key  []byte
	hash uint32
	n    int32
}

// slot is the home slot of hash h in a key index of 1<<(32-shift) slots: the
// top bits of a Fibonacci multiply, never the low bits. Every key of shuffle
// partition p has fnv1a(key) % nparts == p, so the low bits of the hashes a
// partition holds are all equal — four of them with 16 partitions, seven
// with 640 — and a low-bits slot would pile a partition's keys onto a
// sixteenth (a 128th) of the table.
func slot(h uint32, shift uint) int { return int((h * 0x9E3779B1) >> shift) }

// indexFor builds a key index of 1<<(32-shift) slots over groups: each slot
// holds a key id + 1 (0 is empty), probed linearly from the key's slot.
func indexFor(groups []keyGroup, shift uint) []int32 {
	index := make([]int32, 1<<(32-shift))
	mask := len(index) - 1
	for id, g := range groups {
		s := slot(g.hash, shift)
		for index[s] != 0 {
			s = (s + 1) & mask
		}
		index[s] = int32(id) + 1
	}
	return index
}

// group is the one KV→KMV grouping behind both conversions: keys ascending by
// bytes.Compare, each key's values in KV order (the order the two-pass
// segment log and the four-pass algorithm's stable sort both yield). It also
// returns the size of the segment log the two-pass algorithm is priced at,
// Σ(4 + len(value)) over the pairs.
//
// It counts, then places, over the KV's own pieces. Pass 1 walks the pairs,
// finds each key's id in an open-addressed index (compared by stored hash,
// then by bytes in place; doubled whenever it would pass half full, so it is
// sized by distinct keys, not pairs), counts values per key and records each
// pair's key id. Pass 2 sorts the keys, gives each a run of one n-entry
// int32 slab by prefix sum, and walks the pairs again, placing each pair's
// offset in its key's run. Keys are capacity-limited views of kv's pieces, so
// nothing is copied, a value costs the slab 4 bytes (and the id slab 4 more
// while group runs), and the allocations are a fixed number of slabs plus one
// per doubling of the index. Offsets are int32, so kv must be under 2 GiB.
// The KMV aliases kv: see KMV.
func group(kv *KV) (*KMV, int) {
	if kv.Size() > math.MaxInt32 {
		panic(fmt.Sprintf("kvbuf: a KV of %d bytes is over the 2 GiB a grouping indexes", kv.Size()))
	}
	n := kv.n
	ids := make([]int32, n)
	groups := make([]keyGroup, 0, 32)
	shift := uint(32 - 6)
	index := indexFor(nil, shift)
	logBytes, keyBytes := 0, 0

	// Pass 1: count each key's values, note each pair's key id.
	i := 0
	for p := 0; p <= len(kv.pieces); p++ {
		piece := kv.piece(p)
		for off := 0; off < len(piece); i++ {
			var k, v []byte
			k, v, off = pairAt(piece, off)
			logBytes += 4 + len(v)
			h := fnv1a(k)
			var id int32
			for s, mask := slot(h, shift), len(index)-1; ; s = (s + 1) & mask {
				if id = index[s] - 1; id < 0 {
					id = int32(len(groups))
					index[s] = id + 1
					groups = append(groups, keyGroup{key: k, hash: h, n: 1})
					keyBytes += len(k)
					if 2*len(groups) > len(index) {
						shift--
						index = indexFor(groups, shift)
					}
					break
				}
				if g := &groups[id]; g.hash == h && string(g.key) == string(k) {
					g.n++
					break
				}
			}
			ids[i] = id
		}
	}

	// Pass 2: sorted keys, a run of the slab each, offsets placed in KV order.
	order := make([]int32, len(groups))
	for id := range order {
		order[id] = int32(id)
	}
	slices.SortFunc(order, func(a, b int32) int { return bytes.Compare(groups[a].key, groups[b].key) })
	m := &KMV{
		starts:   make([]int32, len(order)+1),
		offs:     make([]int32, n),
		pieces:   kv.Pieces(nil),
		keyBytes: keyBytes,
		valBytes: logBytes - 4*n,
	}
	start := int32(0)
	for r, id := range order {
		g := &groups[id]
		m.starts[r] = start
		m.most = max(m.most, int(g.n))
		g.n, start = start, start+g.n
	}
	m.starts[len(order)] = start
	m.base = make([]int32, len(m.pieces)+1)
	i, at := 0, int32(0)
	for p, piece := range m.pieces {
		m.base[p] = at
		for off := 0; off < len(piece); i++ {
			g := &groups[ids[i]]
			m.offs[g.n] = at + int32(off)
			g.n++
			_, _, off = pairAt(piece, off)
		}
		at += int32(len(piece))
	}
	m.base[len(m.pieces)] = at
	return m, logBytes
}

// pairAt decodes the pair at offset off of a KV buffer, whose framing every
// way of building a KV has validated: its key and value as capacity-limited
// views, as ForEach yields them, and the offset of the next pair.
func pairAt(buf []byte, off int) (k, v []byte, next int) {
	kl := int(binary.LittleEndian.Uint32(buf[off:]))
	vl := int(binary.LittleEndian.Uint32(buf[off+4:]))
	vs := off + 8 + kl
	next = vs + vl
	return buf[off+8 : vs : vs], buf[vs:next:next], next
}

// opsFor models how many disk operations a sequential scan of n bytes
// issues (64 KiB I/O units, at least one).
func opsFor(n int) int {
	if n <= 0 {
		return 0
	}
	ops := n / 65536
	if ops == 0 {
		ops = 1
	}
	return ops
}

// EncodeKMV serializes a KMV for checkpoints and recovery transfers.
func EncodeKMV(m *KMV) []byte {
	var out []byte
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(m.Len()))
	out = append(out, hdr[:]...)
	window := m.Window()
	for i := range m.Len() {
		k, vals := m.Group(i, window)
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(k)))
		out = append(out, hdr[:]...)
		out = append(out, k...)
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(vals)))
		out = append(out, hdr[:]...)
		for _, v := range vals {
			binary.LittleEndian.PutUint32(hdr[:], uint32(len(v)))
			out = append(out, hdr[:]...)
			out = append(out, v...)
		}
	}
	return out
}

// DecodeKMV reverses EncodeKMV. Keys and values are copied into one KV
// encoding of their own, each key as the key of its first value's pair and
// every other value behind an empty key, which is at most twice their encoded
// size, so data must be under 1 GiB. A key with no values is refused:
// EncodeKMV never writes one, and a KMV's key is its first pair's.
func DecodeKMV(data []byte) (*KMV, error) {
	if len(data) > math.MaxInt32/2 {
		return nil, errKV("kvbuf: KMV encoding over 1 GiB")
	}
	rd := reader{data: data}
	nk, err := rd.u32()
	if err != nil {
		return nil, err
	}
	// Every key takes at least 8 bytes of data: a count above that cannot be
	// honest, and must not size an allocation.
	room := min(nk, len(rd.data)/8)
	m := &KMV{starts: make([]int32, 1, room+1)}
	vals := NewKV()
	for i := 0; i < nk; i++ {
		k, err := rd.bytes()
		if err != nil {
			return nil, err
		}
		nv, err := rd.u32()
		if err != nil {
			return nil, err
		}
		if nv == 0 {
			return nil, errKV("kvbuf: KMV encoding holds a key with no values")
		}
		m.keyBytes += len(k)
		for j := 0; j < nv; j++ {
			v, err := rd.bytes()
			if err != nil {
				return nil, err
			}
			m.offs = append(m.offs, int32(vals.Size()))
			vals.Add(k, v)
			m.valBytes += len(v)
			k = nil // only the first pair carries the key
		}
		m.starts = append(m.starts, int32(len(m.offs)))
		m.most = max(m.most, nv)
	}
	m.pieces = vals.Pieces(nil)
	m.base = []int32{0, int32(vals.Size())}[:len(m.pieces)+1]
	return m, nil
}

type reader struct{ data []byte }

func (r *reader) u32() (int, error) {
	if len(r.data) < 4 {
		return 0, errTruncated
	}
	v := int(binary.LittleEndian.Uint32(r.data[:4]))
	r.data = r.data[4:]
	return v, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if len(r.data) < n {
		return nil, errTruncated
	}
	b := r.data[:n:n]
	r.data = r.data[n:]
	return b, nil
}

var errTruncated = errKV("kvbuf: truncated KMV encoding")

type errKV string

func (e errKV) Error() string { return string(e) }
