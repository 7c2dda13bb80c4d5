package kvbuf

import (
	"bytes"
	"encoding/binary"
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
	kmvBytes, keyBytes, skeleton := m.Bytes(), 0, 0
	for i, k := range m.Keys {
		keyBytes += len(k)
		skeleton += len(k) + 8 + 4*len(m.Vals[i])
	}
	var st ConvertStats
	st.add(kvSize, kvSize)
	st.add(kvSize, skeleton)
	st.add(kvSize, kmvBytes-keyBytes)
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
// It counts, then places, over the KV's own bytes. Pass 1 walks the pairs,
// finds each key's id in an open-addressed index (compared by stored hash,
// then by bytes in place; doubled whenever it would pass half full, so it is
// sized by distinct keys, not pairs), counts values per key and records each
// pair's key id. Pass 2 sorts the keys, gives each a run of one n-entry value
// slab by prefix sum, and walks the pairs again, placing each value in its
// key's run. Keys and values are capacity-limited views of kv's buffer and
// each Vals[i] a capacity-limited window of the slab, so nothing is copied
// and the allocations are a fixed number of slabs plus one per doubling of
// the index. The KMV aliases kv: see KMV.
func group(kv *KV) (*KMV, int) {
	buf, n := kv.buf, kv.n // n < 2^31: ids are int32
	ids := make([]int32, n)
	groups := make([]keyGroup, 0, 32)
	shift := uint(32 - 6)
	index := indexFor(nil, shift)
	logBytes := 0

	// Pass 1: count each key's values, note each pair's key id.
	for i, off := 0, 0; i < n; i++ {
		var k, v []byte
		k, v, off = pairAt(buf, off)
		logBytes += 4 + len(v)
		h := fnv1a(k)
		var id int32
		for s, mask := slot(h, shift), len(index)-1; ; s = (s + 1) & mask {
			if id = index[s] - 1; id < 0 {
				id = int32(len(groups))
				index[s] = id + 1
				groups = append(groups, keyGroup{key: k, hash: h, n: 1})
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

	// Pass 2: sorted keys, a run of the slab each, values placed in KV order.
	order := make([]int32, len(groups))
	for id := range order {
		order[id] = int32(id)
	}
	slices.SortFunc(order, func(a, b int32) int { return bytes.Compare(groups[a].key, groups[b].key) })
	flat := make([][]byte, n)
	out := &KMV{Keys: make([][]byte, len(order)), Vals: make([][][]byte, len(order))}
	start := int32(0)
	for r, id := range order {
		g := &groups[id]
		end := start + g.n
		out.Keys[r], out.Vals[r] = g.key, flat[start:end:end]
		g.n, start = start, end
	}
	for i, off := 0, 0; i < n; i++ {
		var v []byte
		_, v, off = pairAt(buf, off)
		g := &groups[ids[i]]
		flat[g.n] = v
		g.n++
	}
	return out, logBytes
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
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(m.Keys)))
	out = append(out, hdr[:]...)
	for i, k := range m.Keys {
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(k)))
		out = append(out, hdr[:]...)
		out = append(out, k...)
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(m.Vals[i])))
		out = append(out, hdr[:]...)
		for _, v := range m.Vals[i] {
			binary.LittleEndian.PutUint32(hdr[:], uint32(len(v)))
			out = append(out, hdr[:]...)
			out = append(out, v...)
		}
	}
	return out
}

// DecodeKMV reverses EncodeKMV.
func DecodeKMV(data []byte) (*KMV, error) {
	rd := reader{data: data}
	nk, err := rd.u32()
	if err != nil {
		return nil, err
	}
	m := &KMV{Keys: make([][]byte, 0, nk), Vals: make([][][]byte, 0, nk)}
	for i := 0; i < nk; i++ {
		k, err := rd.bytes()
		if err != nil {
			return nil, err
		}
		nv, err := rd.u32()
		if err != nil {
			return nil, err
		}
		vals := make([][]byte, 0, nv)
		for j := 0; j < nv; j++ {
			v, err := rd.bytes()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
		m.Keys = append(m.Keys, k)
		m.Vals = append(m.Vals, vals)
	}
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
