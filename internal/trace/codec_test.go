package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unicode/utf8"

	"ftmrmpi/internal/vtime"
)

// Reference models of the JSONL codec. The writer's is encoding/json over
// the wire struct, which appendJSONL must match byte for byte; the reader's
// is decodeForeign on every line, which decodeCanonical must agree with on
// every line it takes for itself.

// toJSONL converts an Event to its JSONL wire form.
func toJSONL(ev Event) jsonlEvent {
	return jsonlEvent{
		Seq:  ev.Seq,
		VTus: float64(ev.VT) / 1e3,
		Rank: ev.Rank,
		Kind: ev.Kind.String(),
		Name: ev.Name,
		A:    ev.A,
		B:    ev.B,
		C:    ev.C,
		Flow: ev.Flow,
	}
}

func readJSONLReference(r io.Reader) ([]Event, *ReadReport, error) {
	var out []Event
	rr, err := wire.Read(r, func(line []byte) error {
		ev, err := decodeForeign(line)
		if err == nil {
			out = append(out, ev)
		}
		return err
	})
	return out, rr, err
}

var hostileNames = []string{
	"", "map", "map/t12", `a"b`, `a\b`, `\`, `"`, "<script>&amp;</script>",
	"\x00\x01\x1f\x7f", "\b\f\n\r\t", "\xff\xfe", "a\xc3", "\xe2\x80", "é", "日本語",
	" ", "x y", "�", "\U0001F600", "tab\there", " lead and trail ",
}

// The append encoder is encoding/json's output for the wire struct, for every
// kind (known or not), the extremes of every numeric field and every class of
// byte a name can hold.
func TestAppendJSONLMatchesEncodingJSON(t *testing.T) {
	check := func(ev Event) {
		t.Helper()
		want, err := json.Marshal(toJSONL(ev))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONL(nil, &ev); !bytes.Equal(got, want) {
			t.Fatalf("event %+v\n got %s\nwant %s", ev, got, want)
		}
	}
	ints := []int64{0, 1, -1, 7, 1 << 53, math.MaxInt64, math.MinInt64}
	vts := []time.Duration{0, 1, 999, 1000, 1001, 4263669287, 1<<53 + 1, 1<<62 + 12345, math.MaxInt64, -1, -1500, math.MinInt64}
	flows := []uint64{0, 1, 1 << 63, math.MaxUint64}
	for k := 0; k < 256; k++ {
		check(Event{Seq: uint64(k), Kind: Kind(k), Rank: k - 1, Name: hostileNames[k%len(hostileNames)]})
	}
	for _, name := range hostileNames {
		for _, v := range ints {
			check(Event{Seq: math.MaxUint64, VT: time.Duration(v), Rank: int(v), Kind: KindSendEnd, Name: name, A: v, B: -v, C: v / 3})
		}
	}
	for _, vt := range vts {
		for _, flow := range flows {
			check(Event{Seq: flow, VT: vt, Kind: KindRecvEnd, Flow: flow})
		}
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		name := make([]byte, rng.Intn(12))
		for j := range name {
			name[j] = byte(rng.Intn(256))
		}
		check(Event{
			Seq: rng.Uint64(), VT: time.Duration(rng.Int63n(1 << uint(1+rng.Intn(62)))),
			Rank: rng.Intn(1<<20) - 1, Kind: Kind(rng.Intn(48)),
			Name: string(name) + hostileNames[rng.Intn(len(hostileNames))],
			A:    ints[rng.Intn(len(ints))], B: rng.Int63() - 1<<62, C: int64(rng.Intn(3)),
			Flow: flows[rng.Intn(len(flows))] & rng.Uint64(),
		})
	}
}

// jsonNames are the hostile names that survive JSON (invalid UTF-8 reads
// back as U+FFFD); runNames are of the kind a run records.
var (
	jsonNames = slices.DeleteFunc(slices.Clone(hostileNames), func(s string) bool { return !utf8.ValidString(s) })
	runNames  = []string{"map", "map/t12", "map/t345", "part-7", "reduce"}
)

// randomTrace records n events at random virtual instants (nanosecond
// grained, below maxVT) on a handful of ranks, stream names drawn from
// names, and returns the tracer.
func randomTrace(seed int64, n int, maxVT time.Duration, capPerRank int, names []string) *Tracer {
	sim := vtime.NewSim()
	tr := New(sim, capPerRank)
	rng := rand.New(rand.NewSource(seed))
	sim.Spawn("emit", func(p *vtime.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Duration(rng.Int63n(int64(maxVT) / int64(n))))
			rec := tr.Rank(rng.Intn(9) - 1)
			switch rng.Intn(4) {
			case 0:
				rec.SendEnd(rng.Intn(8), rng.Intn(100), rng.Intn(1<<20), uint64(i+1))
			case 1:
				rec.CkptCommit(names[rng.Intn(len(names))], rng.Intn(1<<16), 1+rng.Intn(3))
			case 2:
				rec.RecoveryStage("load", time.Duration(rng.Int63n(1e9)))
			default:
				rec.PhaseBegin("map")
			}
		}
	})
	sim.Run()
	return tr
}

// A saved trace reads back to the exact nanosecond: ReadJSONL(WriteJSONL(t))
// is t.Events(), for instants of a short run (where truncating the decoded
// microseconds lost a nanosecond on one event in a hundred), of a run of
// days, and past the instants decodeCanonical takes for itself. The
// streaming sink writes the same bytes.
func TestJSONLRoundTripIsExact(t *testing.T) {
	for _, maxVT := range []time.Duration{10 * time.Second, maxCanonicalVT, 1 << 52} {
		tr := randomTrace(int64(maxVT), 30000, maxVT, 1<<20, jsonNames)
		var file bytes.Buffer
		if err := tr.WriteJSONL(&file); err != nil {
			t.Fatal(err)
		}
		got, rr, err := ReadJSONL(bytes.NewReader(file.Bytes()))
		if err != nil || !rr.Clean() {
			t.Fatalf("maxVT %v: read back: %v / %v", maxVT, err, rr.Err())
		}
		want := tr.Events()
		if len(got) != len(want) {
			t.Fatalf("maxVT %v: %d events read back, %d recorded", maxVT, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("maxVT %v: event %d read back as %+v, recorded %+v", maxVT, i, got[i], want[i])
			}
		}
	}
}

func TestStreamJSONLWritesWhatWriteJSONLWrites(t *testing.T) {
	sim := vtime.NewSim()
	tr := New(sim, 0)
	var streamed, written bytes.Buffer
	tr.StreamJSONL(&streamed)
	for i, name := range hostileNames {
		tr.Rank(i%3).CkptCommit(name, i, 1)
		tr.Rank(i%2).SendEnd(1, 2, 3, uint64(i))
	}
	if err := tr.FlushStream(); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(&written); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), written.Bytes()) {
		t.Fatalf("streamed sink:\n%s\nWriteJSONL:\n%s", streamed.Bytes(), written.Bytes())
	}
}

// eventLines returns the non-blank lines of a fixture after its header.
func eventLines(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) > 0 && !bytes.HasPrefix(line, []byte(`{"format"`)) {
			out = append(out, line)
		}
	}
	return out
}

// Both sides of ReadJSONL's choice are pinned by committed files: every line
// of the writer-made fixtures is decoded in place,
// and every line of foreign.jsonl — other key order, whitespace, an
// exponent, escapes, raw UTF-8, an unknown field, null, a fraction finer
// than a nanosecond, an instant past maxCanonicalVT — goes through
// encoding/json and decodes to exactly these events, instants rounded.
func TestCanonicalAndForeignFixtures(t *testing.T) {
	names := make(map[string]string)
	for _, fixture := range []string{"golden.jsonl", "golden_v2.jsonl", "dup_recv.jsonl", "div_a.jsonl", "div_b.jsonl"} {
		for i, line := range eventLines(t, "testdata/"+fixture) {
			fast, ok := decodeCanonical(line, names)
			if !ok {
				t.Errorf("%s event line %d is not read in place: %s", fixture, i+1, line)
				continue
			}
			if ref, err := decodeForeign(line); err != nil || ref != fast {
				t.Errorf("%s event line %d: in place %+v, encoding/json %+v (%v)", fixture, i+1, fast, ref, err)
			}
		}
	}
	for i, line := range eventLines(t, "testdata/foreign.jsonl") {
		if _, ok := decodeCanonical(line, names); ok {
			t.Errorf("foreign.jsonl event line %d was read in place: %s", i+1, line)
		}
	}
	got, rr, err := readFixture("testdata/foreign.jsonl")
	if err != nil || !rr.Clean() {
		t.Fatalf("foreign.jsonl: %v / %+v", err, rr)
	}
	want := []Event{
		{Seq: 1, Kind: KindPhaseBegin, Name: "map"},
		{Seq: 2, VT: 1500 * time.Microsecond, Rank: 1, Kind: KindSendEnd, A: 1, B: 5, C: 256, Flow: 7},
		{Seq: 3, VT: 4263669287, Kind: KindCkptCommit, Name: `map/té"q\`, A: 10, B: 1},
		{Seq: 4, VT: 4263669287, Kind: KindTaskCommit, Name: "réduce", A: -3},
		{Seq: 5, VT: 5 * time.Millisecond, Rank: GlobalRank, Kind: KindFailureKill, A: 1, B: 1},
		{Seq: 6, VT: 2000000000000500, Kind: KindJobEnd, Name: "job"},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("foreign.jsonl decoded as\n%+v\nwant\n%+v", got, want)
	}
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// eventBytes is the size of an Event, which the memory gates count in.
const eventBytes = 80

// TestTraceRingPaysPerEvent is the tracer's memory gate (make alloc-gate): a
// ring's capacity is a bound, not a reservation. Binding recorders allocates
// per recorder, not per slot; a ring that has seen n events has allocated
// those events, at most one chunk more, and its chunk table; and growing on
// demand changes nothing about what a full ring keeps. Host-independent: the
// bounds are byte counts.
func TestTraceRingPaysPerEvent(t *testing.T) {
	if got := reflect.TypeOf(Event{}).Size(); got != eventBytes {
		t.Fatalf("an Event is %d bytes, the bounds below assume %d", got, eventBytes)
	}

	_, tr := newTestTracer(DefaultCapacity)
	bind := allocated(func() {
		tr.Global()
		for rank := 0; rank < 1024; rank++ {
			tr.Rank(rank)
		}
	})
	t.Logf("binding 1025 recorders at capacity %d allocated %d B", DefaultCapacity, bind)
	if bind >= 1<<20 {
		t.Errorf("binding 1025 recorders allocated %d B, want under 1 MiB (eager rings would be %d B)",
			bind, 1025*DefaultCapacity*eventBytes)
	}

	// Chunks to the capacity: the events themselves and at most one chunk of
	// unused slots, within 1 % (a chunk's malloc header and size class), and
	// the table of chunk pointers, which append grows to at most twice its
	// length, so four pointers a chunk in all it allocates.
	for _, n := range []int{1, 100, 1000, 1 << 12, DefaultCapacity} {
		_, tr := newTestTracer(DefaultCapacity)
		rec := tr.Rank(0)
		got := allocated(func() {
			for i := 0; i < n; i++ {
				rec.TaskCommit("map", i, 0)
			}
		})
		chunks := (n + chunkSlots - 1) / chunkSlots
		t.Logf("%d events allocated %d B, %.3f x their size", n, got, float64(got)/float64(n*eventBytes))
		if limit := uint64((n+chunkSlots)*eventBytes*101/100 + 4*8*chunks); got > limit {
			t.Errorf("%d events allocated %d B, want at most %d", n, got, limit)
		}
	}

	// Past the capacity the ring holds exactly the newest cap events.
	for _, capPerRank := range []int{3, 100, 1 << 10} {
		_, tr := newTestTracer(capPerRank)
		n := 2*capPerRank + capPerRank/2 + 1
		for i := 0; i < n; i++ {
			tr.Rank(0).TaskCommit("map", i, 0)
		}
		evs := tr.EventsFor(0)
		if len(evs) != capPerRank || tr.Dropped(0) != uint64(n-capPerRank) {
			t.Fatalf("cap %d, %d events: kept %d, dropped %d", capPerRank, n, len(evs), tr.Dropped(0))
		}
		for i, ev := range evs {
			if want := int64(n - capPerRank + i); ev.A != want {
				t.Fatalf("cap %d: slot %d holds event %d, want %d", capPerRank, i, ev.A, want)
			}
		}
		if all := tr.Events(); !slices.Equal(all, evs) {
			t.Fatalf("cap %d: Events() differs from the one ring's events", capPerRank)
		}
	}
}

// TestWriteJSONLAllocsFlatInEvents is WriteJSONL's memory gate (make
// alloc-gate): the events go to the writer straight from the rings as they
// merge, so what a write allocates does not grow with the events it writes,
// wrapped rings and drop markers included.
func TestWriteJSONLAllocsFlatInEvents(t *testing.T) {
	for _, capPerRank := range []int{1 << 20, 500} {
		write := func(n int) uint64 {
			tr := randomTrace(1, n, 10*time.Second, capPerRank, runNames)
			return allocated(func() {
				if err := tr.WriteJSONL(io.Discard); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := write(2000), write(32000)
		t.Logf("capacity %d: writing 2000 events allocated %d B, 32000 events %d B", capPerRank, small, large)
		if large > small+16<<10 {
			t.Errorf("capacity %d: 30000 more events cost %d B more, want under 16 KiB (a copy of them is %d B)",
				capPerRank, large-small, 30000*eventBytes)
		}
	}
}

// TestReadJSONLSizesItsResultOnce is ReadJSONL's memory gate (make
// alloc-gate): a trace read from a reader that holds it in memory allocates
// its events once, one slot per line; all else it allocates is a fixed
// cost, the line scanner's buffer first, not a share of the events.
func TestReadJSONLSizesItsResultOnce(t *testing.T) {
	var file bytes.Buffer
	if err := randomTrace(1, 40000, 10*time.Second, 1<<20, runNames).WriteJSONL(&file); err != nil {
		t.Fatal(err)
	}
	var evs []Event
	got := allocated(func() {
		var err error
		if evs, _, err = ReadJSONL(bytes.NewBuffer(file.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	lines := bytes.Count(file.Bytes(), []byte{'\n'})
	if len(evs) != 40000 || cap(evs) != lines {
		t.Fatalf("read %d events into %d slots, want 40000 into one slot a line (%d)", len(evs), cap(evs), lines)
	}
	result := uint64(cap(evs) * eventBytes)
	t.Logf("reading 40000 events allocated %d B: the events %d B, the rest %d B", got, result, got-result)
	if got > result+128<<10 {
		t.Errorf("reading 40000 events allocated %d B, want the events' %d B and under 128 KiB more", got, result)
	}

	// A buffer of blank lines holds no event: it is not sized by its lines.
	blank := append(bytes.Clone(file.Bytes()[:bytes.IndexByte(file.Bytes(), '\n')+1]), bytes.Repeat([]byte{'\n'}, 1<<20)...)
	if got := allocated(func() { ReadJSONL(bytes.NewBuffer(blank)) }); got > uint64(5*len(blank)) {
		t.Errorf("reading a header and %d blank lines allocated %d B, want at most 5 B a byte", 1<<20, got)
	}
}

// Events() is the Seq-sorted union of the rings, wrapped or not.
func TestEventsMergeMatchesSort(t *testing.T) {
	for _, capPerRank := range []int{5, 64, 1 << 20} {
		tr := randomTrace(3, 5000, time.Second, capPerRank, runNames)
		var want []Event
		for _, r := range tr.Ranks() {
			want = append(want, tr.EventsFor(r)...)
		}
		slices.SortFunc(want, func(a, b Event) int { return int(a.Seq) - int(b.Seq) })
		if got := tr.Events(); !slices.Equal(got, want) {
			t.Fatalf("cap %d: merged events differ from the sorted concatenation", capPerRank)
		}
	}
}

// The codec's layer benchmarks, on the gate's raw -bench line.

func benchTrace(b *testing.B) (*Tracer, []byte) {
	tr := randomTrace(1, 40000, 10*time.Second, 1<<20, runNames)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	return tr, buf.Bytes()
}

func BenchmarkWriteJSONL(b *testing.B) {
	tr, _ := benchTrace(b)
	for i := 0; i < b.N; i++ {
		if err := tr.WriteJSONL(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadJSONL(b *testing.B) {
	_, file := benchTrace(b)
	for i := 0; i < b.N; i++ {
		if evs, _, err := ReadJSONL(bytes.NewBuffer(file)); err != nil || len(evs) != 40000 {
			b.Fatal(len(evs), err)
		}
	}
}
