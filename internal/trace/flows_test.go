package trace

import (
	"strings"
	"testing"
	"time"
)

func flowEvent(seq uint64, vt time.Duration, rank int, kind Kind, bytes int64, flow uint64) Event {
	return Event{Seq: seq, VT: vt, Rank: rank, Kind: kind, C: bytes, Flow: flow}
}

func TestCheckFlowsMatchedAndUnmatched(t *testing.T) {
	evs := []Event{
		flowEvent(1, 0, 0, KindSendEnd, 256, 1),
		flowEvent(2, time.Millisecond, 1, KindRecvEnd, 256, 1),
		// Eager send to a rank that died before receiving: a warning, not
		// a violation.
		flowEvent(3, 2*time.Millisecond, 0, KindSendEnd, 64, 2),
		// Aborted receive with no flow id: informational.
		flowEvent(4, 3*time.Millisecond, 1, KindRecvEnd, 0, 0),
	}
	fr := CheckFlows(evs)
	if !fr.OK() {
		t.Fatalf("violations on a legal trace: %v", fr.Violations)
	}
	if fr.Sends != 2 || fr.Recvs != 1 || fr.Matched != 1 || fr.UnmatchedSends != 1 || fr.ZeroRecvs != 1 {
		t.Fatalf("report = %+v, want 2 sends / 1 recv / 1 matched / 1 unmatched / 1 zero-recv", fr)
	}
}

func TestCheckFlowsViolations(t *testing.T) {
	cases := []struct {
		name string
		evs  []Event
		want string
	}{
		{"dangling recv", []Event{
			flowEvent(1, 0, 1, KindRecvEnd, 10, 5),
		}, "never sent"},
		{"duplicate send id", []Event{
			flowEvent(1, 0, 0, KindSendEnd, 10, 5),
			flowEvent(2, 0, 0, KindSendEnd, 10, 5),
		}, "sent 2 times"},
		{"byte mismatch", []Event{
			flowEvent(1, 0, 0, KindSendEnd, 10, 5),
			flowEvent(2, time.Millisecond, 1, KindRecvEnd, 11, 5),
		}, "byte count mismatch"},
		{"vt inversion", []Event{
			flowEvent(1, 2*time.Millisecond, 0, KindSendEnd, 10, 5),
			flowEvent(2, time.Millisecond, 1, KindRecvEnd, 10, 5),
		}, "before send"},
		{"send without id", []Event{
			flowEvent(1, 0, 0, KindSendEnd, 10, 0),
		}, "without flow id"},
	}
	for _, tc := range cases {
		fr := CheckFlows(tc.evs)
		if fr.OK() {
			t.Errorf("%s: no violation reported", tc.name)
			continue
		}
		found := false
		for _, v := range fr.Violations {
			if strings.Contains(v.String(), tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: violations %v lack %q", tc.name, fr.Violations, tc.want)
		}
	}
}

// A shadow.mirror event licenses exactly one extra recv.end per mirror on
// the same flow id: the mirrored copy is an expected duplicate, not a
// pairing violation.
func TestCheckFlowsMirroredDuplicates(t *testing.T) {
	evs := []Event{
		flowEvent(1, 0, 0, KindSendEnd, 256, 1),
		{Seq: 2, VT: time.Microsecond, Rank: 0, Kind: KindShadowMirror, A: 2, B: 7, C: 256, Flow: 1},
		flowEvent(3, time.Millisecond, 1, KindRecvEnd, 256, 1),
		flowEvent(4, time.Millisecond, 2, KindRecvEnd, 256, 1),
	}
	fr := CheckFlows(evs)
	if !fr.OK() {
		t.Fatalf("violations on a mirrored delivery: %v", fr.Violations)
	}
	if fr.Sends != 1 || fr.Recvs != 2 || fr.Matched != 1 || fr.MirroredSends != 1 {
		t.Fatalf("report = %+v, want 1 send / 2 recvs / 1 matched / 1 mirrored", fr)
	}
}

// A mirror-backed flow whose original send.end never made it into the trace
// (the primary died mid-transfer) still legitimizes its recvs.
func TestCheckFlowsMirrorWithoutSendMatches(t *testing.T) {
	evs := []Event{
		{Seq: 1, VT: 0, Rank: 0, Kind: KindShadowMirror, A: 2, B: 7, C: 64, Flow: 9},
		flowEvent(2, time.Millisecond, 2, KindRecvEnd, 64, 9),
	}
	fr := CheckFlows(evs)
	if !fr.OK() {
		t.Fatalf("violations on a mirror-backed flow: %v", fr.Violations)
	}
	if fr.Matched != 1 || fr.DanglingRecvs != 0 || fr.MirroredSends != 1 {
		t.Fatalf("report = %+v, want 1 matched / 0 dangling / 1 mirrored", fr)
	}
}

// Mirrors widen the delivery budget but do not remove it: more recvs than
// 1 send + N mirrors is still a violation, as is a mirror with no flow id.
func TestCheckFlowsMirrorViolations(t *testing.T) {
	over := []Event{
		flowEvent(1, 0, 0, KindSendEnd, 32, 4),
		{Seq: 2, VT: 0, Rank: 0, Kind: KindShadowMirror, A: 2, B: 7, C: 32, Flow: 4},
		flowEvent(3, time.Millisecond, 1, KindRecvEnd, 32, 4),
		flowEvent(4, time.Millisecond, 2, KindRecvEnd, 32, 4),
		flowEvent(5, time.Millisecond, 3, KindRecvEnd, 32, 4),
	}
	fr := CheckFlows(over)
	if fr.OK() {
		t.Fatal("3 recvs against 1 send + 1 mirror passed")
	}
	found := false
	for _, v := range fr.Violations {
		if strings.Contains(v.String(), "received 3 times but delivered 2") {
			found = true
		}
	}
	if !found {
		t.Errorf("violations %v lack the over-delivery reason", fr.Violations)
	}

	noFlow := []Event{{Seq: 1, VT: 0, Rank: 0, Kind: KindShadowMirror, A: 2, B: 7, C: 32}}
	if fr := CheckFlows(noFlow); fr.OK() {
		t.Fatal("shadow.mirror without a flow id passed")
	}
}

// Golden mirror fixture: pins the wire names and field layout of the three
// replication-model event kinds (shadow.mirror, shadow.sync,
// ftmodel.failover — additive within schema 2) and their flow semantics.
func TestGoldenMirrorFixture(t *testing.T) {
	evs, rr, err := readFixture("testdata/golden_mirror.jsonl")
	if err != nil || !rr.Clean() || rr.Schema != 2 {
		t.Fatalf("golden_mirror: %v / %+v", err, rr)
	}
	if len(evs) != 7 {
		t.Fatalf("decoded %d events, want 7", len(evs))
	}
	if ev := evs[1]; ev.Kind != KindShadowMirror || ev.A != 2 || ev.B != 7 || ev.C != 256 || ev.Flow != 1 {
		t.Fatalf("shadow.mirror decoded as %+v", ev)
	}
	if ev := evs[4]; ev.Kind != KindShadowSync || ev.Name != "push" || ev.A != 3 || ev.B != 40 || ev.C != 4096 {
		t.Fatalf("shadow.sync push decoded as %+v", ev)
	}
	if ev := evs[5]; ev.Kind != KindShadowSync || ev.Name != "drain" {
		t.Fatalf("shadow.sync drain decoded as %+v", ev)
	}
	if ev := evs[6]; ev.Kind != KindFailover || ev.Name != "promote" || ev.A != 0 || ev.B != 2 {
		t.Fatalf("ftmodel.failover decoded as %+v", ev)
	}
	fr := CheckFlows(evs)
	if !fr.OK() {
		t.Fatalf("mirror fixture violates flow invariants: %v", fr.Violations)
	}
	if fr.Sends != 1 || fr.Recvs != 2 || fr.Matched != 1 || fr.MirroredSends != 1 {
		t.Fatalf("report = %+v, want 1 send / 2 recvs / 1 matched / 1 mirrored", fr)
	}
}

// The v2 golden fixture's flow ids pair up as documented in DESIGN.md
// §"Trace wire format v2": flows 1 and 2 matched, flow 3 an eager send
// with no receiver.
func TestCheckFlowsGoldenV2(t *testing.T) {
	evs, rr, err := readFixture("testdata/golden_v2.jsonl")
	if err != nil || !rr.Clean() {
		t.Fatalf("golden_v2: %v / %+v", err, rr)
	}
	fr := CheckFlows(evs)
	if !fr.OK() {
		t.Fatalf("golden fixture violates flow invariants: %v", fr.Violations)
	}
	if fr.Sends != 3 || fr.Recvs != 2 || fr.Matched != 2 || fr.UnmatchedSends != 1 {
		t.Fatalf("report = %+v, want 3 sends / 2 recvs / 2 matched / 1 unmatched", fr)
	}
}
