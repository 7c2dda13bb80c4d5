package kvbuf

import (
	"encoding/binary"
	"slices"
	"sort"
	"strings"
)

// ConvertStats reports the data movement a KV→KMV conversion performed.
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

// add accumulates another pass's traffic.
func (s *ConvertStats) add(readB, writeB, readOps, writeOps int) {
	s.ReadBytes += readB
	s.WriteBytes += writeB
	s.ReadOps += readOps
	s.WriteOps += writeOps
	s.Passes++
}

// ConvertFourPass is the original MR-MPI KV→KMV conversion: four nested
// read-and-write passes over the intermediate data (paper §5.2: "reads and
// writes the intermediate data four times").
//
//	pass 1: scan all pairs and spill a key-sorted copy;
//	pass 2: scan the sorted copy, building and writing the per-key skeleton
//	        (key headers + slot tables);
//	pass 3: re-scan the sorted copy, scattering each value into its slot;
//	pass 4: compaction pass over the assembled KMV.
func ConvertFourPass(kv *KV) (*KMV, ConvertStats) {
	var st ConvertStats
	size := kv.Size()

	// Pass 1: read everything, write a key-sorted spill copy.
	type pair struct{ k, v []byte }
	pairs := make([]pair, 0, kv.Len())
	_ = kv.ForEach(func(k, v []byte) {
		pairs = append(pairs, pair{append([]byte(nil), k...), append([]byte(nil), v...)})
	})
	sort.SliceStable(pairs, func(i, j int) bool { return string(pairs[i].k) < string(pairs[j].k) })
	st.add(size, size, opsFor(size), opsFor(size))

	// Pass 2: read the sorted copy, write the per-key skeleton (key bytes
	// plus one slot entry per value).
	counts := make(map[string]int)
	hdrBytes := 0
	for _, p := range pairs {
		if counts[string(p.k)] == 0 {
			hdrBytes += len(p.k) + 8
		}
		counts[string(p.k)]++
		hdrBytes += 4
	}
	st.add(size, hdrBytes, opsFor(size), opsFor(hdrBytes))

	// Pass 3: read the sorted copy again, scatter values into their slots.
	slots := make(map[string][][]byte, len(counts))
	wrote := 0
	for _, p := range pairs {
		slots[string(p.k)] = append(slots[string(p.k)], p.v)
		wrote += len(p.v)
	}
	st.add(size, wrote, opsFor(size), opsFor(wrote))

	// Pass 4: compaction pass over the assembled KMV (read + rewrite).
	keys, vals := sortKeys(slots)
	out := &KMV{Keys: keys, Vals: vals}
	st.add(out.Bytes(), out.Bytes(), opsFor(out.Bytes()), opsFor(out.Bytes()))
	return out, st
}

// segmentSize is the fixed size of the two-pass algorithm's log segments,
// after the log-structured file system design the paper cites (§5.2).
const segmentSize = 4096

// ConvertTwoPass is FT-MRMPI's two-pass conversion. The first pass reads
// the pairs once, appending each value to its key's chain of fixed-size
// segments (values of one key may land in multiple non-contiguous
// segments). The second pass merges each key's segments into one contiguous
// group. Data is touched twice instead of four times, and progress is
// trivially trackable per pass — the property the shuffle-phase tracing
// relies on.
//
// Host cost is per key, not per pair: a pair looks its chain up without
// materialising the key, and a key's first segment starts at the size of its
// first value and grows with its contents (later segments are allocated
// whole), so the many keys of a skewed distribution that hold a few bytes do
// not each pin 4 KiB. Which segment a value lands in, and so the statistics,
// depend on segment lengths only.
func ConvertTwoPass(kv *KV) (*KMV, ConvertStats) {
	var st ConvertStats
	size := kv.Size()

	// chain is one key's log: segments of framed values [vlen u32][value].
	type chain struct {
		key   string
		segs  [][]byte
		nvals int
	}
	var chains []chain
	index := make(map[string]int) // key -> position in chains

	// Pass 1: read pairs once, write values into segments once.
	written := 0
	_ = kv.ForEach(func(k, v []byte) {
		i, ok := index[string(k)] // no allocation: the conversion is only a map lookup
		if !ok {
			i = len(chains)
			key := string(k)
			index[key] = i
			chains = append(chains, chain{key: key})
		}
		c := &chains[i]
		need := 4 + len(v)
		last := len(c.segs) - 1
		if last < 0 || len(c.segs[last])+need > segmentSize {
			segCap := need // a key's first segment grows with its contents
			if last >= 0 {
				segCap = max(segmentSize, need)
			}
			c.segs = append(c.segs, make([]byte, 0, segCap))
			last++
		}
		c.segs[last] = binary.LittleEndian.AppendUint32(c.segs[last], uint32(len(v)))
		c.segs[last] = append(c.segs[last], v...)
		c.nvals++
		written += need
	})
	st.add(size, written, opsFor(size), opsFor(written))

	// Pass 2: merge each key's non-contiguous segments into one group.
	slices.SortFunc(chains, func(a, b chain) int { return strings.Compare(a.key, b.key) })
	out := &KMV{Keys: make([][]byte, len(chains)), Vals: make([][][]byte, len(chains))}
	merged := 0
	for i := range chains {
		c := &chains[i]
		out.Keys[i] = []byte(c.key)
		vals := make([][]byte, 0, c.nvals)
		for _, data := range c.segs {
			merged += len(data)
			for len(data) > 0 {
				vl := int(binary.LittleEndian.Uint32(data[:4]))
				vals = append(vals, data[4:4+vl:4+vl])
				data = data[4+vl:]
			}
		}
		out.Vals[i] = vals
	}
	st.add(merged, merged, opsFor(merged), opsFor(merged))
	return out, st
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
