package kvbuf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestKVAddForEach(t *testing.T) {
	b := NewKV()
	b.Add([]byte("a"), []byte("1"))
	b.Add([]byte("bb"), []byte(""))
	b.Add([]byte(""), []byte("33"))
	var got []string
	if err := b.ForEach(func(k, v []byte) { got = append(got, string(k)+"="+string(v)) }); err != nil {
		t.Fatal(err)
	}
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
	b2, err := FromBytes(b.Bytes())
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
		_ = p.ForEach(func(k, v []byte) {
			if PartitionKey(k, 7) != pi {
				t.Errorf("key %q in wrong partition %d", k, pi)
			}
		})
	}
	if total != 500 {
		t.Fatalf("partitions hold %d pairs, want 500", total)
	}
}

// collect builds a canonical map from a KMV for comparison.
func collect(m *KMV) map[string][]string {
	out := make(map[string][]string)
	m.ForEach(func(k []byte, vals [][]byte) {
		var vs []string
		for _, v := range vals {
			vs = append(vs, string(v))
		}
		// Conversion algorithms may order values differently; normalize.
		sortStrings(vs)
		out[string(k)] = vs
	})
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
	if !reflect.DeepEqual(collect(m4), collect(m2)) {
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
		for i := 1; i < len(m.Keys); i++ {
			if string(m.Keys[i-1]) >= string(m.Keys[i]) {
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
		_ = kv.ForEach(func(k, v []byte) {
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
		return reflect.DeepEqual(collect(m2), want) && reflect.DeepEqual(collect(m4), want)
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
		return reflect.DeepEqual(collect(m), collect(dec))
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

// equalKMV reports whether two KMVs hold the same keys and, per key, the same
// values in the same order (nil and empty slices compare equal).
func equalKMV(a, b *KMV) bool {
	if len(a.Keys) != len(b.Keys) || len(a.Vals) != len(b.Vals) {
		return false
	}
	for i := range a.Keys {
		if !bytes.Equal(a.Keys[i], b.Keys[i]) || len(a.Vals[i]) != len(b.Vals[i]) {
			return false
		}
		for j := range a.Vals[i] {
			if !bytes.Equal(a.Vals[i][j], b.Vals[i][j]) {
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
		_ = kv.ForEach(func(k, v []byte) { logBytes += 4 + len(v) })
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
func refConvertFourPass(kv *KV) (*KMV, ConvertStats) {
	var st ConvertStats
	size := kv.Size()

	// Pass 1: read everything, write a key-sorted spill copy.
	type pair struct{ k, v []byte }
	pairs := make([]pair, 0, kv.Len())
	_ = kv.ForEach(func(k, v []byte) {
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
	out := &KMV{Keys: make([][]byte, len(keys)), Vals: make([][][]byte, len(keys))}
	for i, k := range keys {
		out.Keys[i] = []byte(k)
		out.Vals[i] = slots[k]
	}
	st.add(out.Bytes(), out.Bytes())
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

// TestConvertTwoPassAllocsPerKey is the host-independent gate on the
// conversions' host cost (`make alloc-gate`, part of `make check`): the
// grouping both algorithms share may allocate per key (key string, segment
// growth, value table), never per pair. 10 000 pairs over 100 keys must stay
// under 32 allocations per key; one allocation per pair would be 100 per key.
// The four-pass algorithm is a price list over that grouping, so it is held to
// the same budget.
func TestConvertTwoPassAllocsPerKey(t *testing.T) {
	const pairs, keys, perKey = 10000, 100, 32
	kv := wordcountKV(pairs, keys)
	for name, conv := range map[string]func(*KV) (*KMV, ConvertStats){
		"ConvertTwoPass": ConvertTwoPass, "ConvertFourPass": ConvertFourPass,
	} {
		allocs := testing.AllocsPerRun(5, func() { conv(kv) })
		t.Logf("%s: %.0f allocations for %d pairs over %d keys (%.1f per key)", name, allocs, pairs, keys, allocs/keys)
		if allocs > perKey*keys {
			t.Errorf("%s made %.0f allocations for %d pairs over %d keys, budget %d per key: it allocates per pair again",
				name, allocs, pairs, keys, perKey)
		}
	}
}

func benchmarkConvert(b *testing.B, conv func(*KV) (*KMV, ConvertStats)) {
	kv := wordcountKV(100000, 5000)
	b.ReportAllocs()
	b.SetBytes(int64(kv.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv(kv)
	}
}

func BenchmarkConvertTwoPass(b *testing.B)  { benchmarkConvert(b, ConvertTwoPass) }
func BenchmarkConvertFourPass(b *testing.B) { benchmarkConvert(b, ConvertFourPass) }

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
// growth boundaries fall — from empty, after Reset and after a Grow.
func TestKVAddMatchesThreeAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	kv := NewKV()
	var want []byte
	pairs := 0
	check := func(when string) {
		t.Helper()
		if !bytes.Equal(kv.Bytes(), want) || kv.Len() != pairs || kv.Size() != len(want) {
			t.Fatalf("%s: %d pairs in %d bytes, the three-append form has %d pairs in %d bytes (equal bytes: %v)",
				when, kv.Len(), kv.Size(), pairs, len(want), bytes.Equal(kv.Bytes(), want))
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
				kv.Grow(1 << rng.Intn(16))
				check("after Grow")
			}
		}
		if _, err := FromBytes(kv.Bytes()); err != nil {
			t.Fatalf("round %d: the buffer does not parse: %v", round, err)
		}
		kv.Reset()
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
