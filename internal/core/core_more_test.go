package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ftmrmpi/internal/cluster"
)

var (
	clusterDefault = cluster.Default
	clusterNew     = cluster.New
)

func TestEmptyInputCompletes(t *testing.T) {
	clus := testCluster(2, 2)
	spec := wcSpec("empty", 4, ModelDetectResumeWC)
	// No chunks staged under the input prefix.
	h := RunSingle(clus, spec)
	clus.Sim.Run()
	res := h.Result()
	if res == nil || res.Aborted {
		t.Fatalf("empty job did not complete: %+v", res)
	}
	if got := readOutput(t, clus, "empty", 4); len(got) != 0 {
		t.Fatalf("empty input produced output %v", got)
	}
}

func TestSingleRankJobWithRestart(t *testing.T) {
	clus := testCluster(1, 1)
	name := "single"
	expect := genInput(clus, "in/"+name, 4, 30, 3)
	spec := wcSpec(name, 1, ModelCheckpointRestart)
	h := RunSingle(clus, spec)
	killDuring(h, 0, PhaseReduce, time.Millisecond)
	clus.Sim.Run()
	if !h.Result().Aborted {
		t.Fatal("should have aborted")
	}
	spec.Resume = true
	h2 := RunSingle(clus, spec)
	clus.Sim.Run()
	if h2.Result().Aborted {
		t.Fatal("restart aborted")
	}
	checkCounts(t, readOutput(t, clus, name, 1), expect, "single")
}

func TestFailureDuringShuffleDRWC(t *testing.T) {
	clus := testCluster(4, 2)
	name := "shuf-wc"
	expect := genInput(clus, "in/"+name, 16, 60, 5)
	h := RunSingle(clus, wcSpec(name, 8, ModelDetectResumeWC))
	killDuring(h, 3, PhaseShuffle, 100*time.Microsecond)
	clus.Sim.Run()
	res := h.Result()
	if res.Aborted {
		t.Fatal("job aborted")
	}
	if len(res.FailedRanks) != 1 {
		t.Fatalf("FailedRanks = %v", res.FailedRanks)
	}
	checkCounts(t, readOutput(t, clus, name, 8), expect, "shuf-wc")
}

func TestFailureDuringShuffleCRRestart(t *testing.T) {
	clus := testCluster(4, 2)
	name := "shuf-cr"
	expect := genInput(clus, "in/"+name, 16, 60, 7)
	spec := wcSpec(name, 8, ModelCheckpointRestart)
	h := RunSingle(clus, spec)
	killDuring(h, 4, PhaseShuffle, 100*time.Microsecond)
	clus.Sim.Run()
	if !h.Result().Aborted {
		t.Skip("failure landed after shuffle completed; nothing to test")
	}
	spec.Resume = true
	h2 := RunSingle(clus, spec)
	clus.Sim.Run()
	if h2.Result().Aborted {
		t.Fatal("restart aborted")
	}
	checkCounts(t, readOutput(t, clus, name, 8), expect, "shuf-cr")
}

func TestNWCMapFailure(t *testing.T) {
	clus := testCluster(4, 2)
	name := "nwc-map"
	expect := genInput(clus, "in/"+name, 16, 60, 11)
	h := RunSingle(clus, wcSpec(name, 8, ModelDetectResumeNWC))
	killDuring(h, 1, PhaseMap, 20*time.Millisecond)
	clus.Sim.Run()
	res := h.Result()
	if res.Aborted {
		t.Fatal("job aborted")
	}
	checkCounts(t, readOutput(t, clus, name, 8), expect, "nwc-map")
	// Non-work-conserving: nothing was restored from checkpoints.
	for _, m := range res.Ranks {
		if m != nil && m.RecordsRestored > 0 {
			t.Fatal("NWC restored records from checkpoints")
		}
	}
}

func TestDirectPFSCheckpointRestart(t *testing.T) {
	clus := testCluster(4, 2)
	name := "direct-cr"
	expect := genInput(clus, "in/"+name, 16, 60, 13)
	spec := wcSpec(name, 8, ModelCheckpointRestart)
	spec.CkptLocation = LocDirectPFS
	h := RunSingle(clus, spec)
	killDuring(h, 2, PhaseReduce, time.Millisecond)
	clus.Sim.Run()
	if !h.Result().Aborted {
		t.Fatal("should abort")
	}
	spec.Resume = true
	h2 := RunSingle(clus, spec)
	clus.Sim.Run()
	if h2.Result().Aborted {
		t.Fatal("restart aborted")
	}
	checkCounts(t, readOutput(t, clus, name, 8), expect, "direct-cr")
}

func TestPrefetchRecoveryCorrectAndCheaper(t *testing.T) {
	run := func(prefetch bool) (time.Duration, map[string]int, string) {
		clus := testCluster(4, 2)
		name := "pref-" + strconv.FormatBool(prefetch)
		expect := genInput(clus, "in/"+name, 16, 60, 19)
		spec := wcSpec(name, 8, ModelCheckpointRestart)
		spec.CkptInterval = 3
		h := RunSingle(clus, spec)
		killDuring(h, 3, PhaseReduce, time.Millisecond)
		clus.Sim.Run()
		spec.Resume = true
		spec.Prefetch = prefetch
		h2 := RunSingle(clus, spec)
		clus.Sim.Run()
		if h2.Result().Aborted {
			t.Fatal("restart aborted")
		}
		var load time.Duration
		for _, m := range h2.Result().Ranks {
			if m != nil {
				load += m.Recovery.LoadCkpt
			}
		}
		checkCounts(t, readOutput(t, clus, name, 8), expect, name)
		_ = expect
		return load, expect, name
	}
	plain, _, _ := run(false)
	pref, _, _ := run(true)
	if plain == 0 {
		t.Fatal("no checkpoint load measured")
	}
	if pref >= plain {
		t.Errorf("prefetch load %v not cheaper than direct %v", pref, plain)
	}
}

func TestChunkGranularityCRRestart(t *testing.T) {
	clus := testCluster(4, 2)
	name := "chunk-cr"
	expect := genInput(clus, "in/"+name, 16, 60, 23)
	spec := wcSpec(name, 8, ModelCheckpointRestart)
	spec.Granularity = GranChunk
	h := RunSingle(clus, spec)
	// Kill after the first chunks completed (and their whole-chunk
	// checkpoints drained) but before the map phase finishes.
	killDuring(h, 5, PhaseMap, 75*time.Millisecond)
	clus.Sim.Run()
	if !h.Result().Aborted {
		t.Fatal("should abort")
	}
	spec.Resume = true
	h2 := RunSingle(clus, spec)
	clus.Sim.Run()
	res := h2.Result()
	if res.Aborted {
		t.Fatal("restart aborted")
	}
	checkCounts(t, readOutput(t, clus, name, 8), expect, "chunk-cr")
	var restored, skipped int64
	for _, m := range res.Ranks {
		if m != nil {
			restored += m.RecordsRestored
			skipped += m.RecordsSkipped
		}
	}
	if restored == 0 {
		t.Error("chunk-granularity restart restored nothing")
	}
	if skipped != 0 {
		t.Errorf("chunk granularity skipped %d records (should reprocess whole chunks)", skipped)
	}
}

func TestBackToBackFailuresDuringRecovery(t *testing.T) {
	// The second failure lands moments after the first — likely during the
	// first recovery — and the detect/resume loop must mask both.
	clus := testCluster(8, 2)
	name := "b2b"
	expect := genInput(clus, "in/"+name, 32, 60, 29)
	h := RunSingle(clus, wcSpec(name, 16, ModelDetectResumeWC))
	clus.Sim.After(20*time.Millisecond, func() { h.World.Kill(3) })
	clus.Sim.After(20*time.Millisecond+200*time.Microsecond, func() { h.World.Kill(9) })
	clus.Sim.Run()
	res := h.Result()
	if res.Aborted {
		t.Fatal("job aborted")
	}
	if len(res.FailedRanks) != 2 {
		t.Fatalf("FailedRanks = %v, want 2", res.FailedRanks)
	}
	checkCounts(t, readOutput(t, clus, name, 16), expect, "b2b")
	if st := clus.Sim.Stranded(); len(st) != 0 {
		t.Fatalf("stranded: %v", st)
	}
}

func TestLoadBalanceOffStillCorrect(t *testing.T) {
	clus := testCluster(4, 2)
	name := "nolb"
	expect := genInput(clus, "in/"+name, 16, 60, 31)
	spec := wcSpec(name, 8, ModelDetectResumeWC)
	spec.LoadBalance = false
	h := RunSingle(clus, spec)
	killDuring(h, 6, PhaseMap, 15*time.Millisecond)
	clus.Sim.Run()
	if h.Result().Aborted {
		t.Fatal("aborted")
	}
	checkCounts(t, readOutput(t, clus, name, 8), expect, "nolb")
}

func TestDoneMarkerSkipsCompletedJob(t *testing.T) {
	clus := testCluster(2, 2)
	name := "skipdone"
	genInput(clus, "in/"+name, 8, 20, 37)
	spec := wcSpec(name, 4, ModelCheckpointRestart)
	h := RunSingle(clus, spec)
	clus.Sim.Run()
	first := h.Result()
	if first.Aborted {
		t.Fatal("first run aborted")
	}
	// A restarted application finds the DONE marker and skips the job.
	spec.Resume = true
	h2 := RunSingle(clus, spec)
	clus.Sim.Run()
	second := h2.Result()
	if second.Aborted {
		t.Fatal("skip run aborted")
	}
	if second.Elapsed() > first.Elapsed()/10 {
		t.Fatalf("skip run took %v (first run %v) — marker not honored",
			second.Elapsed(), first.Elapsed())
	}
}

func TestPhaseTimesCoverElapsed(t *testing.T) {
	clus := testCluster(4, 2)
	name := "phases"
	genInput(clus, "in/"+name, 16, 40, 41)
	h := RunSingle(clus, wcSpec(name, 8, ModelNone))
	clus.Sim.Run()
	res := h.Result()
	for _, m := range res.Ranks {
		if m == nil {
			continue
		}
		var sum time.Duration
		for _, d := range m.PhaseTime {
			sum += d
		}
		if sum < res.Elapsed()*8/10 || sum > res.Elapsed()*11/10 {
			t.Fatalf("rank %d phase sum %v vs elapsed %v", m.WorldRank, sum, res.Elapsed())
		}
	}
}

func TestCountersAggregateAcrossRanks(t *testing.T) {
	clus := testCluster(2, 2)
	name := "counters"
	genInput(clus, "in/"+name, 8, 20, 43)
	spec := wcSpec(name, 4, ModelNone)
	inner := spec.NewMapper
	spec.NewMapper = func() Mapper { return &countingMapper{inner: inner()} }
	h := RunSingle(clus, spec)
	clus.Sim.Run()
	res := h.Result()
	var mapped int64
	for _, m := range res.Ranks {
		if m != nil {
			mapped += m.RecordsMapped
		}
	}
	if got := res.Counter("records"); got != mapped {
		t.Fatalf("counter = %d, want %d", got, mapped)
	}
}

// TestCountersHoldOnlyUserKeys pins RankMetrics.Counters (surfaced verbatim
// as "counters" by Summary and ftmr-sim -json) to what its documentation
// says: the keys user code added, plus the library's one documented key,
// ckpt_corrupt. Library-internal timers belong in the trace, not here.
func TestCountersHoldOnlyUserKeys(t *testing.T) {
	for _, ftm := range []FTModel{FTModelCR, FTModelReplicate} {
		clus := testCluster(4, 2)
		name := "counter-keys-" + ftm.String()
		genInput(clus, "in/"+name, 16, 20, 47)
		spec := wcSpec(name, 8, ModelDetectResumeWC)
		spec.FTModel = ftm
		inner := spec.NewMapper
		spec.NewMapper = func() Mapper { return &countingMapper{inner: inner()} }
		h := RunSingle(clus, spec)
		killDuring(h, 1, PhaseMap, 5*time.Millisecond)
		clus.Sim.Run()
		res := h.Result()
		if res == nil || res.Aborted {
			t.Fatalf("%s: job did not complete", name)
		}
		counters := res.Summary().Counters
		if counters["records"] == 0 {
			t.Errorf("%s: user counter missing from %v", name, counters)
		}
		for key := range counters {
			if key != "records" && key != "ckpt_corrupt" {
				t.Errorf("%s: Counters holds %q, which no user code added", name, key)
			}
		}
	}
}

type countingMapper struct{ inner Mapper }

func (c *countingMapper) Map(ctx *TaskContext, k, v []byte, out KVWriter) error {
	ctx.AddCounter("records", 1)
	return c.inner.Map(ctx, k, v, out)
}
func (c *countingMapper) Cost(k, v []byte) float64 { return c.inner.Cost(k, v) }

// --- checkpoint frame properties ---

// decodeFrames returns the valid frame prefix of a stream and what ended it.
func decodeFrames(data []byte) ([]frame, error) {
	out, _, err := decodeFramesPrefix(data)
	return out, err
}

func TestPropFrameRoundTrip(t *testing.T) {
	f := func(frames []struct {
		Kind byte
		A, B uint32
		P    []byte
	}) bool {
		var stream []byte
		kinds := make([]byte, len(frames))
		for i, fr := range frames {
			kinds[i] = fr.Kind%frameReduce + 1 // constrain to the valid kind range
			stream = encodeFrame(stream, kinds[i], fr.A, fr.B, fr.P)
		}
		dec, err := decodeFrames(stream)
		if err != nil || len(dec) != len(frames) {
			return false
		}
		for i, fr := range frames {
			d := dec[i]
			if d.kind != kinds[i] || d.a != fr.A || d.b != fr.B || string(d.payload) != string(fr.P) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeFramesToleratesTruncation(t *testing.T) {
	var stream []byte
	stream = encodeFrame(stream, frameMapDelta, 1, 2, []byte("abc"))
	boundary1 := len(stream)
	stream = encodeFrame(stream, frameTaskDone, 1, 3, nil)
	for cut := 0; cut <= len(stream); cut++ {
		frames, err := decodeFrames(stream[:cut])
		// Never panics, never returns more frames than fully present, and
		// flags every cut that is not an exact frame boundary.
		if len(frames) > 2 {
			t.Fatalf("cut %d: %d frames", cut, len(frames))
		}
		atBoundary := cut == 0 || cut == boundary1 || cut == len(stream)
		if atBoundary && err != nil {
			t.Fatalf("cut %d at frame boundary: unexpected error %v", cut, err)
		}
		if !atBoundary && err == nil {
			t.Fatalf("cut %d mid-frame: truncation not detected", cut)
		}
	}
}

func TestDecodeFramesRejectsGarbage(t *testing.T) {
	// Short header: fewer bytes than one frame header.
	if frames, err := decodeFrames(make([]byte, frameHdrLen-1)); err == nil || len(frames) != 0 {
		t.Fatalf("short header: frames=%d err=%v", len(frames), err)
	}
	// Zero-length payload round-trips as a valid (empty-payload) frame.
	empty := encodeFrame(nil, frameShuffle, 7, 0, nil)
	if frames, err := decodeFrames(empty); err != nil || len(frames) != 1 || len(frames[0].payload) != 0 {
		t.Fatalf("zero-length payload: frames=%d err=%v", len(frames), err)
	}
	// Bad kind byte.
	bad := append([]byte(nil), empty...)
	bad[0] = 0
	if _, err := decodeFrames(bad); err == nil {
		t.Fatal("kind 0 accepted")
	}
	bad[0] = frameReduce + 1
	if _, err := decodeFrames(bad); err == nil {
		t.Fatal("out-of-range kind accepted")
	}
	// Implausible declared length.
	huge := encodeFrame(nil, frameMapDelta, 1, 1, []byte("x"))
	binaryPutU32(huge[9:13], uint32(maxFramePayload)+1)
	if _, err := decodeFrames(huge); err == nil {
		t.Fatal("implausible length accepted")
	}
	// Single flipped payload bit: CRC must catch it, valid prefix preserved.
	two := encodeFrame(nil, frameMapDelta, 1, 2, []byte("abc"))
	first := len(two)
	two = encodeFrame(two, frameTaskDone, 1, 3, []byte("defg"))
	two[first+frameHdrLen] ^= 0x01
	frames, consumed, err := decodeFramesPrefix(two)
	if err == nil || len(frames) != 1 || consumed != first {
		t.Fatalf("bit flip: frames=%d consumed=%d err=%v", len(frames), consumed, err)
	}
	// The diagnostics name the frame, its offset and the defect, in the words
	// recovery logs and quarantine reports have always used.
	good := encodeFrame(nil, frameMapDelta, 1, 2, []byte("abc"))
	after := func(tail ...byte) []byte { return append(append([]byte(nil), good...), tail...) }
	for _, tc := range []struct {
		data []byte
		want string
	}{
		{after(1, 2, 3), "core: frame 1 at offset 20: short header (3 of 17 bytes)"},
		{after(bad...), "core: frame 1 at offset 20: bad kind 6"},
		{after(huge...), "core: frame 1 at offset 20: implausible payload length 1073741825"},
		{after(good[:frameHdrLen+1]...), "core: frame 1 at offset 20: truncated payload (1 of 3 bytes)"},
		{two, "core: frame 1 at offset 20: CRC mismatch (got e2fa1ac1, want 5a467da4)"},
	} {
		if _, _, err := decodeFramesPrefix(tc.data); err == nil || err.Error() != tc.want {
			t.Errorf("error text %q, want %q", err, tc.want)
		}
	}
}

// minimalState is the smallest well-formed survivor state: phase, jobIdx,
// empty bitmap, model rank, three float64s, two empty claim lists.
func minimalState() []byte {
	minimal := []byte{byte(phMap)}
	minimal = append(minimal, 0, 0, 0, 0) // jobIdx
	minimal = append(minimal, 0, 0, 0, 0) // bitmap length 0
	minimal = append(minimal, 0, 0, 0, 0) // model rank
	minimal = append(minimal, make([]byte, 24)...)
	minimal = append(minimal, 0, 0, 0, 0) // parts list
	minimal = append(minimal, 0, 0, 0, 0) // tasks list
	return minimal
}

// malformedStates is one input per rejecting arm of decodeState, each with a
// fragment of the error that arm returns.
func malformedStates() []struct {
	name, want string
	data       []byte
} {
	minimal := minimalState()
	patched := func(off int, v byte) []byte {
		b := append([]byte(nil), minimal...)
		b[off] = v
		return b
	}
	const bitmapLen, partsLen, tasksLen = 5, 37, 41 // offsets of the three length fields
	return []struct {
		name, want string
		data       []byte
	}{
		{"empty", "short survivor state", nil},
		{"short", "short survivor state", []byte{1, 2, 3}},
		{"bad phase", "bad phase", patched(0, byte(phDone+1))},
		{"short header", "short survivor state header", minimal[:7]},
		{"bitmap longer than the state", "truncated survivor state", patched(bitmapLen, 200)},
		{"truncated parts list", "truncated claim list", minimal[:len(minimal)-5]},
		{"parts entries missing", "truncated claim entries", patched(partsLen, 3)},
		{"truncated tasks list", "truncated claim list", minimal[:len(minimal)-1]},
		{"tasks entries missing", "truncated claim entries", patched(tasksLen, 1)},
		{"trailing bytes", "trailing bytes", append(append([]byte(nil), minimal...), 0xff)},
	}
}

// TestDecodeStateRejectsGarbage drives decodeState with malformed inputs, one
// per rejecting arm.
func TestDecodeStateRejectsGarbage(t *testing.T) {
	if _, err := decodeState(minimalState()); err != nil {
		t.Fatalf("minimal valid state rejected: %v", err)
	}
	for _, c := range malformedStates() {
		if _, err := decodeState(c.data); err == nil {
			t.Errorf("%s: garbage accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: rejected with %q, want the %q arm", c.name, err, c.want)
		}
	}
}

func binaryPutU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// --- task table properties ---

func TestPropBitmapRoundTrip(t *testing.T) {
	f := func(done []bool) bool {
		tasks := make([]Task, len(done))
		tt := newTaskTable(tasks, 4)
		for i, d := range done {
			tt.setDone(i, d)
		}
		tt2 := newTaskTable(tasks, 4)
		tt2.mergeBitmap(tt.doneBitmap())
		for i, d := range done {
			if tt2.isDone(i) != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeBitmapIsMonotone(t *testing.T) {
	tasks := make([]Task, 16)
	tt := newTaskTable(tasks, 4)
	tt.setDone(3, true)
	tt.mergeBitmap(make([]byte, 2)) // all-zero gossip must not clear
	if !tt.isDone(3) {
		t.Fatal("merge cleared a done flag")
	}
}

func TestAssignTaskBalanced(t *testing.T) {
	const tasks, ranks = 4096, 64
	counts := make([]int, ranks)
	for i := 0; i < tasks; i++ {
		counts[assignTask(i, ranks)]++
	}
	want := tasks / ranks
	for r, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("rank %d owns %d tasks, want ~%d", r, c, want)
		}
	}
}

// Property: the recovery survivor-state codec round-trips.
func TestPropSurvivorStateRoundTrip(t *testing.T) {
	f := func(phase uint8, bm []byte, rank uint16, a, b, back float64) bool {
		s := survivorState{
			phase:      int(phase % 6),
			doneBitmap: bm,
			model:      lbModel{Rank: int(rank), Intercept: a, Slope: b, Backlog: back},
		}
		var buf []byte
		var tmp [8]byte
		buf = append(buf, byte(s.phase))
		// jobIdx field (zero).
		buf = append(buf, 0, 0, 0, 0)
		bmLen := uint32(len(s.doneBitmap))
		tmp[0] = byte(bmLen)
		tmp[1] = byte(bmLen >> 8)
		tmp[2] = byte(bmLen >> 16)
		tmp[3] = byte(bmLen >> 24)
		buf = append(buf, tmp[:4]...)
		buf = append(buf, s.doneBitmap...)
		tmp[0] = byte(uint32(s.model.Rank))
		tmp[1] = byte(uint32(s.model.Rank) >> 8)
		tmp[2] = byte(uint32(s.model.Rank) >> 16)
		tmp[3] = byte(uint32(s.model.Rank) >> 24)
		buf = append(buf, tmp[:4]...)
		for _, v := range []float64{a, b, back} {
			bits := math.Float64bits(v)
			for i := 0; i < 8; i++ {
				tmp[i] = byte(bits >> (8 * i))
			}
			buf = append(buf, tmp[:]...)
		}
		// Two empty claim lists (partitions, tasks).
		buf = append(buf, 0, 0, 0, 0)
		buf = append(buf, 0, 0, 0, 0)
		dec, err := decodeState(buf)
		if err != nil {
			return false
		}
		if dec.phase != s.phase || dec.model.Rank != s.model.Rank {
			return false
		}
		if len(dec.doneBitmap) != len(s.doneBitmap) {
			return false
		}
		if len(dec.parts) != 0 || len(dec.tasks) != 0 {
			return false
		}
		// NaN-safe float comparison by bits.
		return math.Float64bits(dec.model.Intercept) == math.Float64bits(a) &&
			math.Float64bits(dec.model.Slope) == math.Float64bits(b) &&
			math.Float64bits(dec.model.Backlog) == math.Float64bits(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// encodeState/decodeState used by a live runner agree with each other.
func TestEncodeStateSelfConsistent(t *testing.T) {
	clus := testCluster(2, 2)
	name := "encstate"
	genInput(clus, "in/"+name, 8, 20, 53)
	spec := wcSpec(name, 4, ModelDetectResumeWC)
	var decoded *survivorState
	var world int
	h := Launch(clus, 4, func(app *App) {
		res, err := app.RunJob(spec)
		_ = res
		if err != nil {
			return
		}
	})
	_ = h
	clus.Sim.Run()
	// Build a runner directly to exercise the codec outside a failure.
	clus2 := testCluster(2, 2)
	genInput(clus2, "in/"+name, 8, 20, 53)
	h2 := Launch(clus2, 4, func(app *App) {
		j := &jobCtx{clus: app.h.Clus, spec: spec.withDefaults(), res: app.h.resultSlot(0, spec), h: app.h}
		r := newRunner(j, app.comm)
		if err := r.phaseInit(); err != nil {
			return
		}
		if app.comm.Rank() == 1 {
			st, err := decodeState(r.encodeState())
			if err != nil {
				t.Errorf("decode: %v", err)
				return
			}
			decoded = &st
			world = r.myWorld()
		}
	})
	_ = h2
	clus2.Sim.Run()
	if decoded == nil {
		t.Fatal("no state decoded")
	}
	if decoded.phase != phInit || decoded.model.Rank != world {
		t.Fatalf("decoded = %+v (world %d)", decoded, world)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (time.Duration, map[string]int) {
		clus := testCluster(4, 2)
		name := "det"
		genInput(clus, "in/"+name, 16, 40, 59)
		h := RunSingle(clus, wcSpec(name, 8, ModelDetectResumeWC))
		killDuring(h, 3, PhaseMap, 15*time.Millisecond)
		clus.Sim.Run()
		return h.Result().Elapsed(), readOutput(t, clus, name, 8)
	}
	e1, o1 := run()
	e2, o2 := run()
	if e1 != e2 {
		t.Fatalf("elapsed differs across identical runs: %v vs %v", e1, e2)
	}
	if len(o1) != len(o2) {
		t.Fatalf("outputs differ")
	}
	for k, v := range o1 {
		if o2[k] != v {
			t.Fatalf("outputs differ at %s", k)
		}
	}
}

func TestCheckpointsGarbageCollectedOnSuccess(t *testing.T) {
	clus := testCluster(2, 2)
	name := "gc"
	genInput(clus, "in/"+name, 8, 20, 61)
	spec := wcSpec(name, 4, ModelCheckpointRestart)
	h := RunSingle(clus, spec)
	clus.Sim.Run()
	if h.Result().Aborted {
		t.Fatal("aborted")
	}
	if got := clus.PFS.List("ckpt/" + name + "/map/"); len(got) != 0 {
		t.Fatalf("map checkpoints survived completion: %v", got)
	}
	if !clus.PFS.Exists("ckpt/" + name + "/DONE") {
		t.Fatal("DONE marker missing")
	}
}

func TestIterativeAppRapidFailuresAcrossJobBoundaries(t *testing.T) {
	// Failures timed to land near job boundaries of an iterative
	// application: each job's closing shrink must hold every survivor in it
	// until all agree the job is over.
	clus := testCluster(8, 2)
	nJobs := 4
	expects := make([]map[string]int, nJobs)
	for i := 0; i < nJobs; i++ {
		expects[i] = genInput(clus, fmt.Sprintf("in/rapid-%d", i), 16, 30, int64(70+i))
	}
	h := Launch(clus, 16, func(app *App) {
		for i := 0; i < nJobs; i++ {
			spec := wcSpec(fmt.Sprintf("rapid-%d", i), 16, ModelDetectResumeWC)
			spec.InputPrefix = fmt.Sprintf("in/rapid-%d", i)
			if _, err := app.RunJob(spec); err != nil {
				return
			}
		}
	})
	// A dense spray of kills across the whole application lifetime.
	for i, victim := range []int{2, 5, 8, 11} {
		victim := victim
		clus.Sim.After(time.Duration(11*(i+1))*time.Millisecond, func() { h.World.Kill(victim) })
	}
	clus.Sim.Run()
	rs := h.Results()
	if len(rs) != nJobs {
		t.Fatalf("%d job results, want %d", len(rs), nJobs)
	}
	for i, res := range rs {
		if res.Aborted {
			t.Fatalf("job %d aborted", i)
		}
		checkCounts(t, readOutput(t, clus, fmt.Sprintf("rapid-%d", i), 16), expects[i],
			fmt.Sprintf("rapid-%d", i))
	}
	if h.World.AliveCount() != 12 {
		t.Fatalf("alive = %d, want 12", h.World.AliveCount())
	}
	if st := clus.Sim.Stranded(); len(st) != 0 {
		t.Fatalf("stranded: %v", st)
	}
}
