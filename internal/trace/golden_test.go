package trace

import (
	"os"
	"strings"
	"testing"
	"time"
)

// Golden-trace test (satellite #2): a committed JSONL fixture must decode
// through ReadJSONL, Summarize, and Skew to exactly these values. The fixture
// is the wire-format contract — if an encoder, kind name, or aggregation rule
// drifts, this test pins down what changed.
func TestGoldenTraceSummarizeAndSkew(t *testing.T) {
	f, err := os.Open("testdata/golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, rr, err := ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	// A header and 20 events, every one decoded.
	if rr.Lines != 21 || !rr.Clean() {
		t.Fatalf("fixture read report = %+v, want a header and 20 clean lines", rr)
	}
	if len(events) != 20 {
		t.Fatalf("decoded %d events, want 20", len(events))
	}
	// Spot-check decoding of a new-in-this-PR kind.
	if ev := events[2]; ev.Kind != KindSlowRank || ev.Rank != GlobalRank || ev.A != 1 || ev.B != 6000 {
		t.Fatalf("event 3 decoded as %+v, want failure.slow on the world track", ev)
	}
	if ev := events[11]; ev.Kind != KindLBFit || ev.Name != "trace" || ev.A != 2000000 || ev.B != 1500000 || ev.C != 7 {
		t.Fatalf("event 12 decoded as %+v, want lb.fit", ev)
	}

	s := Summarize(events)
	r0 := s.Rank(0)
	check := func(what string, got, want any) {
		t.Helper()
		if got != want {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
	}
	check("rank0 map", r0.Phase[PhaseNameMap], 10*time.Millisecond)
	check("rank0 merge", r0.Phase[PhaseNameConvert], 3*time.Millisecond)
	check("rank0 reduce", r0.Phase[PhaseNameReduce], 12*time.Millisecond)
	check("rank0 copier time", r0.CopierTime, 500*time.Microsecond)
	check("rank0 copier bytes", r0.CopierBytes, int64(4096))
	check("rank0 recoveries", r0.Recoveries, 1)
	check("rank0 recovery time", r0.RecoveryTime, 3*time.Millisecond)
	check("rank0 coll time", r0.CollTime, 100*time.Microsecond)
	check("rank0 task commits", r0.TaskCommits, int64(1))
	check("rank0 lb fits", r0.LBFits, int64(1))

	r1 := s.Rank(1)
	check("rank1 map", r1.Phase[PhaseNameMap], 22*time.Millisecond)
	check("rank1 reduce", r1.Phase[PhaseNameReduce], 4*time.Millisecond)
	check("rank1 lb fits", r1.LBFits, int64(0))

	skew := s.Skew()
	// The world track (failure.slow at rank -1) must not appear as a rank.
	check("skew ranks", len(skew.Ranks), 2)
	sk0 := skew.RankSkew(0)
	check("skew0 busy", sk0.Busy, 25*time.Millisecond)
	check("skew0 copier", sk0.Copier, 500*time.Microsecond)
	check("skew0 recovery", sk0.Recovery, 3*time.Millisecond)
	check("skew0 coll", sk0.Coll, 100*time.Microsecond)
	sk1 := skew.RankSkew(1)
	check("skew1 busy", sk1.Busy, 26*time.Millisecond)
	check("skew1 shuffle", sk1.Shuffle, time.Duration(0))

	check("mean busy", skew.MeanBusy, 25500*time.Microsecond)
	check("max busy", skew.MaxBusy, 26*time.Millisecond)
	check("slowest rank", skew.SlowestRank, 1)
	wantImb := float64(26*time.Millisecond) / float64(25500*time.Microsecond)
	check("imbalance", skew.Imbalance, wantImb)
}

// An unknown kind or torn line must be counted in the ReadReport — not a
// hard failure (the good lines still decode), and not a silent drop (the
// report says exactly how many lines were bad and where the damage starts).
func TestReadJSONLCountsDamage(t *testing.T) {
	const header = `{"format":"ftmr-trace","schema":2}` + "\n"
	for _, bad := range []string{
		`{"seq":1,"vt_us":0,"rank":0,"kind":"no.such.kind"}`,
		`{"seq":1,"vt_us":0,"rank":0,`,
	} {
		good := `{"seq":2,"vt_us":5,"rank":0,"kind":"phase.begin","name":"map"}`
		events, rr, err := ReadJSONL(strings.NewReader(header + bad + "\n" + good + "\n"))
		if err != nil {
			t.Fatalf("ReadJSONL with damaged line %q hard-failed: %v", bad, err)
		}
		if len(events) != 1 || events[0].Kind != KindPhaseBegin {
			t.Fatalf("good line not decoded past damage %q: %+v", bad, events)
		}
		if rr.Clean() || rr.BadLines != 1 || rr.FirstBadLine != 2 || rr.FirstBadErr == nil {
			t.Fatalf("read report = %+v, want 1 bad line at line 2", rr)
		}
		if rr.Err() == nil || !strings.Contains(rr.Err().Error(), "1 of 3") {
			t.Fatalf("summary error = %v, want counted summary", rr.Err())
		}
	}
}

// readFixture is ReadJSONL over a committed fixture.
func readFixture(path string) ([]Event, *ReadReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadJSONL(f)
}

// Golden v2 fixture: header line plus flow-stamped send/recv events, pinned
// to the spec in DESIGN.md §"Trace wire format v2". If an encoder field
// name, the header shape, or flow-id semantics drift, this fails first.
func TestGoldenV2FlowFixture(t *testing.T) {
	events, rr, err := readFixture("testdata/golden_v2.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if rr.Lines != 17 || !rr.Clean() {
		t.Fatalf("v2 fixture read report = %+v, want a header and 16 clean lines", rr)
	}
	if len(events) != 16 {
		t.Fatalf("decoded %d events, want 16", len(events))
	}

	// The three flow-stamped sends and their receivers, as the spec's
	// example run lays them out.
	type pair struct {
		sendVT, recvVT time.Duration
		bytes          int64
	}
	sends := map[uint64]*Event{}
	recvs := map[uint64]*Event{}
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case KindSendEnd:
			sends[ev.Flow] = ev
		case KindRecvEnd:
			recvs[ev.Flow] = ev
		}
	}
	want := map[uint64]pair{
		1: {1200 * time.Microsecond, 1500 * time.Microsecond, 256},
		2: {2000 * time.Microsecond, 2300 * time.Microsecond, 128},
	}
	for id, p := range want {
		s, r := sends[id], recvs[id]
		if s == nil || r == nil {
			t.Fatalf("flow %d not present on both sides", id)
		}
		if s.VT != p.sendVT || r.VT != p.recvVT || s.C != p.bytes || r.C != p.bytes {
			t.Errorf("flow %d = send %v/%dB recv %v/%dB, want %+v", id, s.VT, s.C, r.VT, r.C, p)
		}
	}
	if s := sends[3]; s == nil || recvs[3] != nil {
		t.Error("flow 3 must be an unmatched eager send")
	}

	s := Summarize(events)
	if got := s.Rank(0).Phase[PhaseNameMap]; got != 10*time.Millisecond {
		t.Errorf("rank0 map = %v, want 10ms", got)
	}
	if got := s.Rank(1).Phase[PhaseNameReduce]; got != 6*time.Millisecond {
		t.Errorf("rank1 reduce = %v, want 6ms", got)
	}
	if rs := s.Rank(0); rs.CkptBytes != 4096 || rs.CkptFrames != 2 {
		t.Errorf("rank0 ckpt = %d B / %d frames, want 4096/2", rs.CkptBytes, rs.CkptFrames)
	}
}

// A trace from a newer schema than this build understands must hard-error
// rather than be misread (DESIGN.md §"Trace wire format v2"), and so must
// one this build no longer writes: a header at schema 1, or the headerless
// form of the first writer (the golden fixture's events, header cut off).
func TestReadJSONLRejectsFutureSchema(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	_, events, _ := strings.Cut(string(golden), "\n")
	for _, in := range []string{
		`{"format":"ftmr-trace","schema":99}` + "\n",
		`{"format":"ftmr-trace","schema":1}` + "\n" + events,
		events,
	} {
		if got, rr, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%.40q... read as %d events (%+v), want an error", in, len(got), rr)
		}
	}
}
