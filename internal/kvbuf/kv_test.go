package kvbuf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"ftmrmpi/internal/storage"
)

func TestKVAddForEach(t *testing.T) {
	b := NewKV()
	b.Add([]byte("a"), []byte("1"))
	b.Add([]byte("bb"), []byte(""))
	b.Add([]byte(""), []byte("33"))
	var got []string
	b.ForEach(func(k, v []byte) { got = append(got, string(k)+"="+string(v)) })
	want := []string{"a=1", "bb=", "=33"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
}

func TestKVRoundTripBytes(t *testing.T) {
	b := NewKV()
	for i := 0; i < 100; i++ {
		b.Add([]byte(fmt.Sprintf("key%d", i%7)), []byte(fmt.Sprintf("val%d", i)))
	}
	b2, err := FromBytes(flat(b))
	if err != nil {
		t.Fatal(err)
	}
	if b2.Len() != b.Len() || b2.Size() != b.Size() {
		t.Fatalf("round trip: %d/%d vs %d/%d", b2.Len(), b2.Size(), b.Len(), b.Size())
	}
}

func TestFromBytesRejectsGarbage(t *testing.T) {
	if _, err := FromBytes([]byte{1, 2, 3}); err == nil {
		t.Fatal("accepted truncated header")
	}
	if _, err := FromBytes([]byte{255, 0, 0, 0, 255, 0, 0, 0, 'x'}); err == nil {
		t.Fatal("accepted truncated body")
	}
}

func TestPartitionPreservesAllPairs(t *testing.T) {
	b := NewKV()
	for i := 0; i < 500; i++ {
		b.Add([]byte(fmt.Sprintf("k%d", i)), []byte{byte(i)})
	}
	parts := b.Partition(7)
	total := 0
	for pi, p := range parts {
		total += p.Len()
		p.ForEach(func(k, v []byte) {
			if PartitionKey(k, 7) != pi {
				t.Errorf("key %q in wrong partition %d", k, pi)
			}
		})
	}
	if total != 500 {
		t.Fatalf("partitions hold %d pairs, want 500", total)
	}
}

// flat returns a KV's encoding as one slice: its pieces joined.
func flat(kv *KV) []byte { return bytes.Join(kv.Pieces(nil), nil) }

// refKMV is a KMV as the reference groupings build it: the keys and, per key,
// its values.
type refKMV struct {
	keys [][]byte
	vals [][][]byte
}

// len returns the number of keys.
func (r refKMV) len() int { return len(r.keys) }

// bytes returns the total payload size (keys + values), as KMV.Bytes.
func (r refKMV) bytes() int {
	total := 0
	for i, k := range r.keys {
		total += len(k)
		for _, v := range r.vals[i] {
			total += len(v)
		}
	}
	return total
}

// kmvOf reads a KMV through ForEach into the reference shape: each group's
// window is copied before the next key refills it.
func kmvOf(m *KMV) refKMV {
	var out refKMV
	m.ForEach(func(k []byte, vals [][]byte) {
		out.keys = append(out.keys, k)
		out.vals = append(out.vals, slices.Clone(vals))
	})
	return out
}

// collect builds a canonical map from a KMV's groups for comparison.
func collect(m refKMV) map[string][]string {
	out := make(map[string][]string)
	for i, k := range m.keys {
		var vs []string
		for _, v := range m.vals[i] {
			vs = append(vs, string(v))
		}
		// Conversion algorithms may order values differently; normalize.
		sortStrings(vs)
		out[string(k)] = vs
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func randomKV(rng *rand.Rand, n, keySpace int) *KV {
	b := NewKV()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%d", rng.Intn(keySpace))
		v := make([]byte, rng.Intn(40))
		rng.Read(v)
		b.Add([]byte(k), v)
	}
	return b
}

func TestConversionsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kv := randomKV(rng, 2000, 50)
	m4, s4 := refConvertFourPass(kv) // the executed algorithm: a second grouping to agree with
	m2, s2 := ConvertTwoPass(kv)
	if !reflect.DeepEqual(collect(m4), collect(kmvOf(m2))) {
		t.Fatal("four-pass and two-pass conversions disagree")
	}
	if s4.Passes != 4 || s2.Passes != 2 {
		t.Fatalf("passes = %d / %d, want 4 / 2", s4.Passes, s2.Passes)
	}
	if s2.Total() >= s4.Total() {
		t.Fatalf("two-pass moved %d bytes, four-pass %d — expected strictly less", s2.Total(), s4.Total())
	}
	// Paper §6.6: the two-pass conversion cuts conversion time by >50%; the
	// bytes-moved ratio must support that.
	if ratio := float64(s2.Total()) / float64(s4.Total()); ratio > 0.6 {
		t.Fatalf("two-pass/four-pass traffic ratio %.2f, want <= 0.6", ratio)
	}
}

func TestConversionKeysSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	kv := randomKV(rng, 300, 40)
	for name, conv := range map[string]func(*KV) (*KMV, ConvertStats){
		"four": ConvertFourPass, "two": ConvertTwoPass,
	} {
		m, _ := conv(kv)
		for i := 1; i < m.Len(); i++ {
			prev, _ := m.Group(i-1, nil)
			if key, _ := m.Group(i, nil); string(prev) >= string(key) {
				t.Fatalf("%s-pass: keys not strictly sorted at %d", name, i)
			}
		}
	}
}

func TestConversionEmptyInput(t *testing.T) {
	m2, _ := ConvertTwoPass(NewKV())
	m4, _ := ConvertFourPass(NewKV())
	if m2.Len() != 0 || m4.Len() != 0 {
		t.Fatal("empty input produced groups")
	}
}

// Property: both conversions preserve the multiset of pairs exactly.
func TestPropConversionsPreservePairs(t *testing.T) {
	f := func(seed int64, n uint16, ks uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		kv := randomKV(rng, int(n%800), int(ks%30)+1)
		want := make(map[string][]string)
		kv.ForEach(func(k, v []byte) {
			want[string(k)] = append(want[string(k)], string(v))
		})
		for k := range want {
			sortStrings(want[k])
		}
		m2, _ := ConvertTwoPass(kv)
		m4, _ := ConvertFourPass(kv)
		if kv.Len() == 0 {
			return m2.Len() == 0 && m4.Len() == 0
		}
		return reflect.DeepEqual(collect(kmvOf(m2)), want) && reflect.DeepEqual(collect(kmvOf(m4)), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: KMV encoding round-trips.
func TestPropKMVEncodeRoundTrip(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		kv := randomKV(rng, int(n%500), 20)
		m, _ := ConvertTwoPass(kv)
		dec, err := DecodeKMV(EncodeKMV(m))
		if err != nil {
			return false
		}
		return equalKMV(dec, kmvOf(m))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeKMVRejectsTruncation(t *testing.T) {
	kv := NewKV()
	kv.Add([]byte("k"), []byte("v"))
	m, _ := ConvertTwoPass(kv)
	enc := EncodeKMV(m)
	for cut := 1; cut < len(enc); cut++ {
		if _, err := DecodeKMV(enc[:cut]); err == nil {
			t.Fatalf("accepted truncation at %d", cut)
		}
	}
}

// A key with no values is refused: EncodeKMV never writes one, and a KMV's
// key is the key of its first pair, so there would be no pair to hold it.
func TestDecodeKMVRejectsKeyWithoutValues(t *testing.T) {
	u32 := func(b []byte, n int) []byte { return binary.LittleEndian.AppendUint32(b, uint32(n)) }
	group := func(b []byte, key string, vals ...string) []byte {
		b = append(u32(b, len(key)), key...)
		b = u32(b, len(vals))
		for _, v := range vals {
			b = append(u32(b, len(v)), v...)
		}
		return b
	}
	whole := group(u32(nil, 1), "a", "v")
	if m, err := DecodeKMV(whole); err != nil || !equalKMV(m, refKMV{keys: [][]byte{[]byte("a")}, vals: [][][]byte{{[]byte("v")}}}) {
		t.Fatalf("DecodeKMV of {a: [v]}: %v", err)
	}
	for name, enc := range map[string][]byte{
		"only key":   group(u32(nil, 1), "b"),
		"second key": group(group(u32(nil, 2), "a", "v"), "b"),
		"empty key":  group(u32(nil, 1), ""),
	} {
		if m, err := DecodeKMV(enc); err == nil {
			t.Errorf("%s: decoded a key with no values into %d keys", name, m.Len())
		}
	}
}

// equalKMV reports whether a KMV holds the reference's keys and, per key, its
// values in the same order (nil and empty slices compare equal), read through
// Group, and whether its Bytes is theirs.
func equalKMV(m *KMV, ref refKMV) bool {
	if m.Len() != ref.len() || m.Bytes() != ref.bytes() {
		return false
	}
	for i := range ref.keys {
		key, vals := m.Group(i, nil)
		if !bytes.Equal(key, ref.keys[i]) || len(vals) != len(ref.vals[i]) {
			return false
		}
		for j := range vals {
			if !bytes.Equal(vals[j], ref.vals[i][j]) {
				return false
			}
		}
	}
	return true
}

// stressKV builds the shapes that stress the segment chains: empty values, a
// value larger than a segment, one hot key whose values span several segments,
// many keys seen once. Seed 0 is the empty KV.
func stressKV(seed int64) *KV {
	rng := rand.New(rand.NewSource(seed))
	kv := NewKV()
	if seed == 0 {
		return kv
	}
	val := func(n int) []byte {
		v := make([]byte, n)
		rng.Read(v)
		return v
	}
	hot := []byte(fmt.Sprintf("hot-%d", seed))
	nPairs := 200 + rng.Intn(800)
	for i := 0; i < nPairs; i++ {
		switch r := rng.Intn(10); {
		case r < 3:
			kv.Add(hot, val(rng.Intn(64))) // > 4 KiB in total: spills into later segments
		case r < 5:
			kv.Add([]byte(fmt.Sprintf("single-%d-%d", seed, i)), val(rng.Intn(8)))
		case r < 6:
			kv.Add([]byte(fmt.Sprintf("key-%d", rng.Intn(20))), nil)
		default:
			kv.Add([]byte(fmt.Sprintf("key-%d", rng.Intn(20))), val(rng.Intn(300)))
		}
		if i == nPairs/2 {
			kv.Add([]byte(fmt.Sprintf("key-%d", rng.Intn(20))), val(segmentSize+1+rng.Intn(segmentSize)))
		}
	}
	for i := 0; i < 100; i++ {
		kv.Add(hot, val(60))
	}
	return kv
}

// Property: over the stress shapes the two-pass KMV is the executed four-pass
// KMV (same keys, same value order), and the traffic the runtime is charged
// is the closed form of the algorithm: pass 1 reads the KV and writes every
// value behind a 4-byte length, pass 2 reads and rewrites that log.
func TestPropConvertTwoPassMatchesFourPassAndClosedForm(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		kv := stressKV(seed)
		m2, s2 := ConvertTwoPass(kv)
		m4, _ := refConvertFourPass(kv)
		if !equalKMV(m2, m4) {
			t.Fatalf("seed %d: two-pass KMV differs from four-pass KMV", seed)
		}
		logBytes := 0
		kv.ForEach(func(k, v []byte) { logBytes += 4 + len(v) })
		want := ConvertStats{
			Passes:     2,
			ReadBytes:  kv.Size() + logBytes,
			WriteBytes: 2 * logBytes,
			ReadOps:    opsFor(kv.Size()) + opsFor(logBytes),
			WriteOps:   2 * opsFor(logBytes),
		}
		if s2 != want {
			t.Fatalf("seed %d: stats = %+v, want %+v", seed, s2, want)
		}
	}
}

// refConvertFourPass is MR-MPI's four-pass conversion executed pass by pass,
// as ConvertFourPass ran it before it was charged from the shared grouping:
// the oracle for its KMV and for every field of its ConvertStats.
func refConvertFourPass(kv *KV) (refKMV, ConvertStats) {
	var st ConvertStats
	size := kv.Size()

	// Pass 1: read everything, write a key-sorted spill copy.
	type pair struct{ k, v []byte }
	pairs := make([]pair, 0, kv.Len())
	kv.ForEach(func(k, v []byte) {
		pairs = append(pairs, pair{append([]byte(nil), k...), append([]byte(nil), v...)})
	})
	sort.SliceStable(pairs, func(i, j int) bool { return string(pairs[i].k) < string(pairs[j].k) })
	st.add(size, size)

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
	st.add(size, hdrBytes)

	// Pass 3: read the sorted copy again, scatter values into their slots.
	slots := make(map[string][][]byte, len(counts))
	wrote := 0
	for _, p := range pairs {
		slots[string(p.k)] = append(slots[string(p.k)], p.v)
		wrote += len(p.v)
	}
	st.add(size, wrote)

	// Pass 4: compaction pass over the assembled KMV (read + rewrite).
	keys := make([]string, 0, len(slots))
	for k := range slots {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := refKMV{keys: make([][]byte, len(keys)), vals: make([][][]byte, len(keys))}
	for i, k := range keys {
		out.keys[i] = []byte(k)
		out.vals[i] = slots[k]
	}
	st.add(out.bytes(), out.bytes())
	return out, st
}

// Property: ConvertFourPass charges the four passes without executing them;
// over the stress shapes and random KVs, its KMV and every field of its
// ConvertStats are those of the executed algorithm.
func TestPropConvertFourPassMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		var kv *KV
		if seed%2 == 0 {
			kv = stressKV(seed)
		} else {
			rng := rand.New(rand.NewSource(seed))
			kv = randomKV(rng, rng.Intn(3000), 1+rng.Intn(200))
		}
		m, st := ConvertFourPass(kv)
		ref, refSt := refConvertFourPass(kv)
		if !equalKMV(m, ref) {
			t.Fatalf("seed %d: KMV differs from the executed four-pass conversion", seed)
		}
		if st != refSt {
			t.Fatalf("seed %d: stats = %+v, executed four passes moved %+v", seed, st, refSt)
		}
	}
}

// The two price lists on sizes small enough to compute by hand. One operation
// is 64 KiB of a sequential scan, at least one per non-empty pass.
func TestConvertStatsBySize(t *testing.T) {
	big := make([]byte, segmentSize+904) // 5000 bytes: one value larger than a segment
	for _, tc := range []struct {
		name      string
		pairs     [][2][]byte
		two, four ConvertStats
	}{
		{name: "empty KV", two: ConvertStats{Passes: 2}, four: ConvertStats{Passes: 4}},
		{
			// KV 8+1+0 = 9; log 4; skeleton 1+8+4 = 13; values 0; KMV 1.
			name:  "one empty value",
			pairs: [][2][]byte{{[]byte("k"), nil}},
			two:   ConvertStats{Passes: 2, ReadBytes: 9 + 4, WriteBytes: 4 + 4, ReadOps: 2, WriteOps: 2},
			four:  ConvertStats{Passes: 4, ReadBytes: 3*9 + 1, WriteBytes: 9 + 13 + 0 + 1, ReadOps: 4, WriteOps: 3},
		},
		{
			// KV (8+2+5000) + (8+2+3) + (8+1+0) = 5032; log 5004 + 7 + 4 = 5015;
			// skeleton (2+8+2*4) + (1+8+4) = 31; values 5003; KMV 5006.
			name:  "one value larger than a segment",
			pairs: [][2][]byte{{[]byte("kk"), big}, {[]byte("kk"), []byte("abc")}, {[]byte("z"), nil}},
			two:   ConvertStats{Passes: 2, ReadBytes: 5032 + 5015, WriteBytes: 2 * 5015, ReadOps: 2, WriteOps: 2},
			four:  ConvertStats{Passes: 4, ReadBytes: 3*5032 + 5006, WriteBytes: 5032 + 31 + 5003 + 5006, ReadOps: 4, WriteOps: 4},
		},
	} {
		kv := NewKV()
		for _, p := range tc.pairs {
			kv.Add(p[0], p[1])
		}
		m, logBytes := group(kv)
		if got := twoPassStats(kv.Size(), logBytes); got != tc.two {
			t.Errorf("%s: twoPassStats = %+v, want %+v", tc.name, got, tc.two)
		}
		if got := fourPassStats(kv.Size(), m); got != tc.four {
			t.Errorf("%s: fourPassStats = %+v, want %+v", tc.name, got, tc.four)
		}
	}
	// Operations are 64 KiB units of each pass, not of the total.
	if got, want := twoPassStats(3*65536, 65535), (ConvertStats{Passes: 2, ReadBytes: 3*65536 + 65535, WriteBytes: 2 * 65535, ReadOps: 3 + 1, WriteOps: 1 + 1}); got != want {
		t.Errorf("twoPassStats(3*64 KiB, 64 KiB-1) = %+v, want %+v", got, want)
	}
}

// wordcountKV is the shape the conversions see in a wordcount job: nPairs
// one-byte counts spread evenly over nKeys words.
func wordcountKV(nPairs, nKeys int) *KV {
	kv := NewKV()
	for i := 0; i < nPairs; i++ {
		kv.Add([]byte(fmt.Sprintf("w%06d", i%nKeys)), []byte{1})
	}
	return kv
}

// partitionKeys is a wordcount vocabulary (w%06d, 20 000 words, as
// workloads.GenCorpus formats it) as the shuffle splits it over nparts
// partitions: the keys partition p receives are partitionKeys(nparts)[p].
func partitionKeys(nparts int) [][][]byte {
	parts := make([][][]byte, nparts)
	for w := 0; w < 20000; w++ {
		k := []byte(fmt.Sprintf("w%06d", w))
		p := PartitionKey(k, nparts)
		parts[p] = append(parts[p], k)
	}
	return parts
}

// partitionKV is what one partition of a wordcount job holds when its rank
// converts it: nPairs one-byte counts over partition 0 of nparts, the words
// drawn Zipf-distributed as GenCorpus draws them.
func partitionKV(nPairs, nparts int) *KV {
	keys := partitionKeys(nparts)[0]
	zipf := rand.NewZipf(rand.New(rand.NewSource(int64(nparts))), 1.07, 4, uint64(len(keys)-1))
	kv := NewKV()
	for i := 0; i < nPairs; i++ {
		kv.Add(keys[zipf.Uint64()], []byte{1})
	}
	return kv
}

// TestConvertAllocsAreSlabs is the host-independent gate on the conversions'
// host cost (`make alloc-gate`, part of `make check`): the grouping both
// algorithms share allocates a fixed number of slabs plus one per doubling of
// its key index (and of its key table), never per key or per pair. 10 000
// pairs over 100 keys and over 5 000 keys must each stay within 48
// allocations (one per key was 1 120 at 100 keys), and within perPair bytes
// a pair plus perKey a key: the id slab and the offset slab are 4 bytes a
// pair each (91.9 KB at 100 keys, 846 KB at 5 000), where a []byte header per
// value made it 30 B a pair (301.5 KB and 1 276 KB), and a KMV keeps no key
// slab (a 24-byte header a key made it 969 KB at 5 000 keys, 176 B a key).
// The four-pass algorithm is a price list over that grouping, so it is held
// to the same budget.
func TestConvertAllocsAreSlabs(t *testing.T) {
	const pairs, budget, perPair, perKey = 10000, 48, 9, 168
	for _, keys := range []int{100, 5000} {
		kv := wordcountKV(pairs, keys)
		for name, conv := range map[string]func(*KV) (*KMV, ConvertStats){
			"ConvertTwoPass": ConvertTwoPass, "ConvertFourPass": ConvertFourPass,
		} {
			allocs := testing.AllocsPerRun(5, func() { conv(kv) })
			// The least of a few runs: the runtime's own rare allocations land
			// in one of them, not in all.
			var m0, m1 runtime.MemStats
			bytes := uint64(math.MaxUint64)
			for range 5 {
				runtime.ReadMemStats(&m0)
				conv(kv)
				runtime.ReadMemStats(&m1)
				bytes = min(bytes, m1.TotalAlloc-m0.TotalAlloc)
			}
			t.Logf("%s: %.0f allocations, %d B (%.1f B a pair) for %d pairs over %d keys", name, allocs, bytes, float64(bytes)/pairs, pairs, keys)
			if allocs > budget {
				t.Errorf("%s made %.0f allocations for %d pairs over %d keys, budget %d: it allocates per key again",
					name, allocs, pairs, keys, budget)
			}
			if limit := uint64(perPair*pairs + perKey*keys + 1024); bytes > limit {
				t.Errorf("%s allocated %d B for %d pairs over %d keys, budget %d (%d B a pair, %d a key): it allocates per value again",
					name, bytes, pairs, keys, limit, perPair, perKey)
			}
		}
	}
}

// AppendRun keeps a run of at least storage.ShareMin bytes as a piece by
// reference, a view of the caller's bytes capped at its length, and copies a
// shorter one into the KV's room, in place: filling the room allocates
// nothing. A KV that outgrows its room reallocates instead of writing into
// the next KV's, and a run that does not parse leaves the KV unchanged.
func TestAppendRunKeepsLongRunsByReference(t *testing.T) {
	short, long := flat(wordcountKV(100, 10)), flat(wordcountKV(1000, 10))
	if len(short) >= storage.ShareMin || len(long) < storage.ShareMin {
		t.Fatalf("runs of %d and %d bytes do not straddle %d", len(short), len(long), storage.ShareMin)
	}
	kvs := NewKVs([]int{2 * len(short), len(short)})
	a, b := &kvs[0], &kvs[1]
	for _, run := range [][]byte{short, long, short} {
		if err := a.AppendRun(run); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AppendRun(short); err != nil {
		t.Fatal(err)
	}
	pieces := a.Pieces(nil)
	if len(pieces) != 3 || &pieces[1][0] != &long[0] || cap(pieces[1]) != len(long) {
		t.Fatalf("a long run between two short ones: %d pieces, the long one not a capped view of the run", len(pieces))
	}
	if &pieces[0][0] == &short[0] || !bytes.Equal(pieces[0], short) || !bytes.Equal(pieces[2], short) {
		t.Fatalf("the short runs are not copies of the run")
	}
	other := flat(wordcountKV(90, 7))
	if err := a.AppendRun(other); err != nil { // past a's room
		t.Fatal(err)
	}
	if !bytes.Equal(flat(b), short) || a.Len() != 1290 || a.Size() != 2*len(short)+len(long)+len(other) {
		t.Fatalf("after a outgrew its room: b holds %d bytes (want its run's %d), a %d pairs in %d bytes",
			b.Size(), len(short), a.Len(), a.Size())
	}
	if err := a.AppendRun(short[:len(short)-1]); err == nil || a.Len() != 1290 || a.Size() != 2*len(short)+len(long)+len(other) {
		t.Fatalf("a torn run: err %v, a holds %d pairs in %d bytes", err, a.Len(), a.Size())
	}
	room := &NewKVs([]int{10 * len(short)})[0]
	if allocs := testing.AllocsPerRun(5, func() { _ = room.AppendRun(short) }); allocs != 0 {
		t.Errorf("copying short runs into the room made %v allocations, want 0", allocs)
	}
}

// benchmarkConvert times a conversion on the two shapes that bound its cost:
// wordcount's partition (131 072 pairs over the ~1 250 words one of 16
// partitions holds, wc-data's shape: the index stays small and every pair is
// a hit) and 100 000 keys seen once each (every pair a miss, the index
// doubling all the way).
func benchmarkConvert(b *testing.B, conv func(*KV) (*KMV, ConvertStats)) {
	for _, bc := range []struct {
		name string
		kv   *KV
	}{
		{"partition", partitionKV(131072, 16)},
		{"distinct", wordcountKV(100000, 100000)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(bc.kv.Size()))
			for i := 0; i < b.N; i++ {
				conv(bc.kv)
			}
		})
	}
}

func BenchmarkConvertTwoPass(b *testing.B)  { benchmarkConvert(b, ConvertTwoPass) }
func BenchmarkConvertFourPass(b *testing.B) { benchmarkConvert(b, ConvertFourPass) }

// segmentSize is the fixed size of the segment log's segments in refGroup,
// after the log-structured file system design the paper cites (§5.2).
const segmentSize = 4096

// refGroup is the grouping as it ran before its index was the KV's own bytes,
// kept as the reference model: a map[string] index over per-key chains of
// segments the values are copied into, merged per key in pass 2.
func refGroup(kv *KV) (refKMV, int) {
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
	kv.ForEach(func(k, v []byte) {
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
	out := refKMV{keys: make([][]byte, len(chains)), vals: make([][][]byte, len(chains))}
	for i := range chains {
		c := &chains[i]
		out.keys[i] = []byte(c.key)
		vals := make([][]byte, 0, c.nvals)
		for _, data := range c.segs {
			for len(data) > 0 {
				vl := int(binary.LittleEndian.Uint32(data[:4]))
				vals = append(vals, data[4:4+vl:4+vl])
				data = data[4+vl:]
			}
		}
		out.vals[i] = vals
	}
	return out, logBytes
}

// checkGroup fails t unless group and refGroup agree on kv: the same keys in
// the same order, per key the same values in the same order, the same log
// size. The same pairs assembled from runs either side of storage.ShareMin
// (pieces held by reference and copied ones) must group the same way.
func checkGroup(t testing.TB, name string, kv *KV) {
	t.Helper()
	ref, refLog := refGroup(kv)
	for _, in := range []*KV{kv, assemble(flat(kv), int64(kv.Len()))} {
		m, logBytes := group(in)
		if !equalKMV(m, ref) {
			t.Fatalf("%s: KMV of %d pieces differs from the reference grouping (%d vs %d keys)", name, len(in.Pieces(nil)), m.Len(), ref.len())
		}
		if logBytes != refLog {
			t.Fatalf("%s: log size %d, the reference's segment log holds %d", name, logBytes, refLog)
		}
	}
}

// runs cuts an encoding into runs of whole pairs, each as long as the pairs
// reach past a target drawn from either side of storage.ShareMin.
func runs(data []byte, rng *rand.Rand) [][]byte {
	var out [][]byte
	targets := []int{1, 300, storage.ShareMin - 100, storage.ShareMin, 3 * storage.ShareMin}
	for len(data) > 0 {
		n, target := 0, targets[rng.Intn(len(targets))]
		for n < len(data) && n < target {
			_, _, m := NextPair(data[n:])
			n += m
		}
		out = append(out, data[:n:n])
		data = data[n:]
	}
	return out
}

// assemble is data's pairs appended as runs (AppendRun) into a KV with room
// for some of its short runs, as a shuffle merge builds a partition.
func assemble(data []byte, seed int64) *KV {
	rng := rand.New(rand.NewSource(seed))
	kv := &NewKVs([]int{rng.Intn(2 * storage.ShareMin)})[0]
	for _, run := range runs(data, rng) {
		if err := kv.AppendRun(run); err != nil {
			panic(err)
		}
	}
	return kv
}

// Property: the grouping is its reference model, value order included, over
// the shapes that stress the segment chains, random KVs, wordcount partitions
// of 16 and of 640, one key with 100 000 values, 100 000 distinct keys (the
// index doubling all the way), and the empty key, empty values and a value
// larger than a segment in one KV.
func TestPropGroupMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		checkGroup(t, fmt.Sprintf("stressKV(%d)", seed), stressKV(seed))
		rng := rand.New(rand.NewSource(seed))
		checkGroup(t, fmt.Sprintf("randomKV(%d)", seed), randomKV(rng, rng.Intn(3000), 1+rng.Intn(500)))
	}
	checkGroup(t, "one partition of 16", partitionKV(20000, 16))
	checkGroup(t, "one partition of 640", partitionKV(2000, 640))
	checkGroup(t, "one key, 100 000 values", wordcountKV(100000, 1))
	checkGroup(t, "100 000 distinct keys", wordcountKV(100000, 100000))
	edge := NewKV()
	for i := 0; i < 50; i++ {
		edge.Add(nil, []byte{byte(i)})
		edge.Add([]byte{byte(i % 7)}, nil)
		if i%10 == 0 {
			edge.Add([]byte("big"), bytes.Repeat([]byte{byte(i)}, segmentSize+1+i))
		}
	}
	checkGroup(t, "empty key, empty values, values over a segment", edge)
}

// FuzzGroup: whatever bytes parse as a KV group as the reference groups them.
func FuzzGroup(f *testing.F) {
	f.Add([]byte{})
	f.Add(flat(stressKV(3)))
	f.Add(flat(randomKV(rand.New(rand.NewSource(1)), 40, 5)))
	f.Fuzz(func(t *testing.T, data []byte) {
		kv, err := FromBytes(data)
		if err != nil {
			return
		}
		checkGroup(t, "fuzzed KV", kv)
	})
}

// The key index's home slots spread the keys of one shuffle partition, whose
// hashes share their low bits (four of them at 16 partitions, seven at 640).
// For the fullest partition of a 20 000-word vocabulary, inserting its keys
// with slot into an index at load ½ or less, the size group grows it to,
// probes at most 32 slots for any key. A low-bits slot fails this at 640
// partitions: every key of the partition gets the same home slot.
func TestGroupSlotsSpreadOnePartition(t *testing.T) {
	for _, nparts := range []int{16, 640} {
		keys := slices.MaxFunc(partitionKeys(nparts), func(a, b [][]byte) int { return len(a) - len(b) })
		shift := uint(32 - 6)
		for 2*len(keys) > 1<<(32-shift) {
			shift--
		}
		index := make([]bool, 1<<(32-shift))
		longest := 0
		for _, k := range keys {
			s, probes := slot(fnv1a(k), shift), 1
			for ; index[s]; probes++ {
				s = (s + 1) & (len(index) - 1)
			}
			index[s] = true
			longest = max(longest, probes)
		}
		t.Logf("%d partitions: %d keys in %d slots, longest probe %d", nparts, len(keys), len(index), longest)
		if longest > 32 {
			t.Errorf("%d partitions: %d keys at load %.2f take up to %d probes, want <= 32: the slot does not spread one partition's keys",
				nparts, len(keys), float64(len(keys))/float64(len(index)), longest)
		}
	}
}

// A KMV aliases its KV: appending to the KV (AppendRun, in place into its
// room or as a piece by reference, and Add, in place or reallocating) leaves
// every key and value byte-identical, and appending to a returned key, value
// or value slice reallocates instead of overwriting what follows it.
func TestKMVViewsSurviveKVAppends(t *testing.T) {
	kv := &NewKVs([]int{1 << 16})[0] // room: the short runs below copy into it in place
	rng := rand.New(rand.NewSource(7))
	for _, run := range runs(flat(stressKV(7)), rng) {
		if err := kv.AppendRun(run); err != nil {
			t.Fatal(err)
		}
	}
	if len(kv.Pieces(nil)) < 3 {
		t.Fatalf("want a KV of several pieces, got %d", len(kv.Pieces(nil)))
	}
	m, _ := ConvertTwoPass(kv)
	if m.Len() < 2 {
		t.Fatalf("want a KMV of several keys, got %d", m.Len())
	}
	want, err := DecodeKMV(bytes.Clone(EncodeKMV(m)))
	if err != nil {
		t.Fatal(err)
	}
	ref := kmvOf(want)
	before := flat(kv)
	check := func(when string) {
		t.Helper()
		if !equalKMV(m, ref) {
			t.Fatalf("after %s: the KMV changed", when)
		}
		if !bytes.Equal(flat(kv)[:len(before)], before) {
			t.Fatalf("after %s: the grouped bytes of the KV changed", when)
		}
	}
	more := flat(stressKV(8))
	for i, run := range runs(more, rng) {
		if err := kv.AppendRun(run); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("AppendRun %d of %d bytes", i, len(run)))
	}
	kv.Add([]byte("after"), []byte("add"))
	check("Add")
	for i := 0; i < 1000; i++ {
		kv.Add([]byte("after"), bytes.Repeat([]byte("grow"), 30))
	}
	check("Adds past the room")
	window := m.Window()
	for i := 0; i < m.Len(); i++ {
		key, vals := m.Group(i, window[:0])
		_ = append(key, "KEY"...)
		_ = append(vals, []byte("VALUE"))
		for _, v := range vals {
			_ = append(v, "VAL"...)
		}
	}
	check("appends to the KMV's slices")
}

// PartitionKey is 32-bit FNV-1a written out as a loop; hash/fnv, which it
// used to call, is the reference.
func TestPartitionKeyMatchesFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10000; i++ {
		key := make([]byte, rng.Intn(40)) // the empty key included
		rng.Read(key)
		nparts := 1 + rng.Intn(10000)
		h := fnv.New32a()
		h.Write(key)
		if got, want := PartitionKey(key, nparts), int(h.Sum32()%uint32(nparts)); got != want {
			t.Fatalf("PartitionKey(%x, %d) = %d, hash/fnv says %d", key, nparts, got, want)
		}
	}
}

// addByAppends is Add as it was: header, key and value appended one by one.
func addByAppends(buf, k, v []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
	buf = append(buf, k...)
	return append(buf, v...)
}

// Add writes a pair in place after one capacity check; the buffer it builds
// is the one three appends built, whatever the lengths and wherever the
// growth boundaries fall — from empty, and after an AppendRun that was copied
// or kept as a piece by reference.
func TestKVAddMatchesThreeAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	kv := NewKV()
	var want []byte
	pairs := 0
	check := func(when string) {
		t.Helper()
		same, off := true, 0
		for _, p := range kv.Pieces(nil) {
			same = same && off+len(p) <= len(want) && bytes.Equal(p, want[off:off+len(p)])
			off += len(p)
		}
		if !same || off != len(want) || kv.Len() != pairs || kv.Size() != len(want) {
			t.Fatalf("%s: %d pairs in %d bytes, the three-append form has %d pairs in %d bytes (equal bytes: %v)",
				when, kv.Len(), kv.Size(), pairs, len(want), same)
		}
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 3000; i++ {
			k := make([]byte, rng.Intn(4)*rng.Intn(12)) // empty one time in four or so
			v := make([]byte, rng.Intn(3)*rng.Intn(300))
			rng.Read(k)
			rng.Read(v)
			kv.Add(k, v)
			want = addByAppends(want, k, v)
			pairs++
			check(fmt.Sprintf("round %d, pair %d", round, i))
			if i == 1500 {
				run := randomKV(rng, 1+rng.Intn(200), 50)
				if err := kv.AppendRun(flat(run)); err != nil {
					t.Fatal(err)
				}
				want = append(want, flat(run)...)
				pairs += run.Len()
				check(fmt.Sprintf("after an AppendRun of %d bytes", run.Size()))
			}
		}
		if _, err := FromBytes(flat(kv)); err != nil {
			t.Fatalf("round %d: the buffer does not parse: %v", round, err)
		}
		kv = NewKV()
		want, pairs = want[:0], 0
	}
}

// BenchmarkKVAdd is the per-pair cost of the map path's buffer: wordcount's
// sixteen-byte pairs, into a buffer that grows from empty.
func BenchmarkKVAdd(b *testing.B) {
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("w%06d", i))
	}
	b.ReportAllocs()
	b.SetBytes(16)
	kv := NewKV()
	for i := 0; i < b.N; i++ {
		if i&(1<<17-1) == 0 {
			kv = NewKV() // a partition's worth, then a fresh buffer
		}
		kv.Add(keys[i&4095], []byte{1})
	}
}
