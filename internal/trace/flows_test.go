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
		{"received twice", []Event{
			flowEvent(1, 0, 0, KindSendEnd, 10, 5),
			flowEvent(2, time.Millisecond, 1, KindRecvEnd, 10, 5),
			flowEvent(3, time.Millisecond, 2, KindRecvEnd, 10, 5),
		}, "received 2 times"},
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

// Golden mirror fixture: pins the wire names and field layout of the three
// replication-model event kinds (shadow.mirror, shadow.sync,
// ftmodel.failover — additive within schema 2). shadow.mirror is decoded but
// no longer emitted, and licenses nothing: the second receive of the
// fixture's one send is reported as a duplicate delivery.
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
	if fr.Sends != 1 || fr.Recvs != 2 || fr.Matched != 1 {
		t.Fatalf("report = %+v, want 1 send / 2 recvs / 1 matched", fr)
	}
	if len(fr.Violations) != 1 || fr.Violations[0].ID != 1 || !strings.Contains(fr.Violations[0].Reason, "received 2 times") {
		t.Fatalf("violations = %v, want flow 1 received 2 times", fr.Violations)
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
