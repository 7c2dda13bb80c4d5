package kvbuf

import (
	"encoding/binary"
	"slices"
	"strings"
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
// not executed: the KMV comes from the one grouping both algorithms share,
// and the statistics are fourPassStats of its sizes. The executed algorithm
// is refConvertFourPass in kv_test.go, which a property test holds this to.
func ConvertFourPass(kv *KV) (*KMV, ConvertStats) {
	m, _ := group(kv)
	return m, fourPassStats(kv.Size(), m)
}

// ConvertTwoPass is FT-MRMPI's two-pass conversion. The first pass reads
// the pairs once, appending each value to its key's chain of fixed-size
// segments (values of one key may land in multiple non-contiguous
// segments). The second pass merges each key's segments into one contiguous
// group. Data is touched twice instead of four times, and progress is
// trivially trackable per pass — the property the shuffle-phase tracing
// relies on.
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

// segmentSize is the fixed size of the grouping's log segments, after the
// log-structured file system design the paper cites (§5.2).
const segmentSize = 4096

// group is the one KV→KMV grouping, the two-pass algorithm's data movement:
// it appends each value to its key's chain of segments, then merges each
// chain into one contiguous group, keys in lexicographic order and a key's
// values in insertion order. It also returns the size of the segment log,
// Σ(4 + len(value)) over the pairs, which prices the two-pass algorithm.
//
// Host cost is per key, not per pair: a pair looks its chain up without
// materialising the key, and a key's first segment starts at the size of its
// first value and grows with its contents (later segments are allocated
// whole), so the many keys of a skewed distribution that hold a few bytes do
// not each pin 4 KiB.
func group(kv *KV) (*KMV, int) {
	// chain is one key's log: segments of framed values [vlen u32][value].
	type chain struct {
		key   string
		segs  [][]byte
		nvals int
	}
	var chains []chain
	index := make(map[string]int) // key -> position in chains

	// Pass 1: read pairs once, write values into segments once.
	logBytes := 0
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
		logBytes += need
	})

	// Pass 2: merge each key's non-contiguous segments into one group.
	slices.SortFunc(chains, func(a, b chain) int { return strings.Compare(a.key, b.key) })
	out := &KMV{Keys: make([][]byte, len(chains)), Vals: make([][][]byte, len(chains))}
	for i := range chains {
		c := &chains[i]
		out.Keys[i] = []byte(c.key)
		vals := make([][]byte, 0, c.nvals)
		for _, data := range c.segs {
			for len(data) > 0 {
				vl := int(binary.LittleEndian.Uint32(data[:4]))
				vals = append(vals, data[4:4+vl:4+vl])
				data = data[4+vl:]
			}
		}
		out.Vals[i] = vals
	}
	return out, logBytes
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
