package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"ftmrmpi/internal/vtime"
)

func newTestTracer(capPerRank int) (*vtime.Sim, *Tracer) {
	sim := vtime.NewSim()
	return sim, New(sim, capPerRank)
}

func TestNilTracerAndRecorderAreNoOps(t *testing.T) {
	var tr *Tracer
	rec := tr.Rank(3)
	if rec != nil {
		t.Fatalf("nil tracer handed out non-nil recorder")
	}
	// Every helper must be callable on the nil recorder.
	rec.PhaseBegin("map")
	rec.PhaseEnd("map")
	rec.SendBegin(1, 2, 3)
	rec.SendEnd(1, 2, 3, 7)
	rec.RecvBegin(-1, 2)
	rec.RecvEnd(0, 2, 9, 7)
	rec.CollBeginN("barrier", 0, 0)
	rec.CollEndN("barrier", 0, 0)
	rec.CkptCommit("map/t0", 10, 1)
	rec.CopierBegin("map/t0", 10)
	rec.CopierEnd("map/t0", 10)
	rec.CopierDrain("map/t0", 10)
	rec.CkptLoad("map/t0", 10, 1)
	rec.FailureInject(1)
	rec.FailureKill(1)
	rec.FailureDetect([]int{1})
	rec.Revoke("initiate")
	rec.ShrinkBegin(4)
	rec.ShrinkEnd(3)
	rec.AgreeBegin(1)
	rec.AgreeEnd(1)
	rec.LoadBalance("parts", 2, 3)
	rec.LBFit("trace", 0.002, 1.5e-6, 7)
	rec.SlowRank(1, 6.0)
	rec.TaskCommit("map", 0, 5)
	rec.RecoveryBegin()
	rec.RecoveryEnd()

	if got := tr.Events(); got != nil {
		t.Errorf("nil tracer Events() = %v, want nil", got)
	}
	if got := tr.Ranks(); got != nil {
		t.Errorf("nil tracer Ranks() = %v, want nil", got)
	}
	if got := tr.Dropped(0); got != 0 {
		t.Errorf("nil tracer Dropped() = %d, want 0", got)
	}
}

func TestRingRetainsNewestAndCountsDrops(t *testing.T) {
	_, tr := newTestTracer(4)
	rec := tr.Rank(0)
	for i := 0; i < 10; i++ {
		rec.TaskCommit("map", i, 0)
	}
	evs := tr.EventsFor(0)
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// The newest 4 (task ids 6..9) survive, in order.
	for i, ev := range evs {
		if want := int64(6 + i); ev.A != want {
			t.Errorf("event %d: task id %d, want %d", i, ev.A, want)
		}
	}
	if got := tr.Dropped(0); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
}

func TestEventsMergeInCausalOrder(t *testing.T) {
	sim, tr := newTestTracer(0)
	// Interleave emissions across ranks; Seq must order the merged stream.
	tr.Rank(2).PhaseBegin("map")
	tr.Rank(0).PhaseBegin("map")
	tr.Rank(2).PhaseEnd("map")
	tr.Rank(1).PhaseBegin("map")
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Errorf("events out of Seq order at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
	wantRanks := []int{2, 0, 2, 1}
	for i, ev := range evs {
		if ev.Rank != wantRanks[i] {
			t.Errorf("event %d rank = %d, want %d", i, ev.Rank, wantRanks[i])
		}
	}
	_ = sim
}

func TestEventVirtualTimestamps(t *testing.T) {
	sim, tr := newTestTracer(0)
	rec := tr.Rank(0)
	rec.PhaseBegin("map")
	sim.Spawn("p", func(p *vtime.Proc) {
		p.Sleep(5 * time.Millisecond)
		rec.PhaseEnd("map")
	})
	sim.Run()
	evs := tr.EventsFor(0)
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].VT != 0 || evs[1].VT != 5*time.Millisecond {
		t.Errorf("timestamps = %v, %v; want 0, 5ms", evs[0].VT, evs[1].VT)
	}
}

func TestWriteJSONLParses(t *testing.T) {
	_, tr := newTestTracer(0)
	tr.Rank(0).PhaseBegin("map")
	tr.Rank(0).SendEnd(1, 7, 64, 42)
	tr.Global().FailureInject(1)

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	var kinds []string
	sawFlow := false
	sc := bufio.NewScanner(&buf)
	line := 0
	for sc.Scan() {
		line++
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		if line == 1 {
			// The v2 header precedes the events (DESIGN.md §"Trace wire
			// format v2").
			if obj["format"] != "ftmr-trace" || obj["schema"] != float64(SchemaVersion) {
				t.Fatalf("header line = %v, want format ftmr-trace schema %d", obj, SchemaVersion)
			}
			continue
		}
		kinds = append(kinds, obj["kind"].(string))
		if obj["kind"] == "send.end" {
			if obj["flow"] != float64(42) {
				t.Errorf("send.end flow = %v, want 42", obj["flow"])
			}
			sawFlow = true
		}
	}
	want := []string{"phase.begin", "send.end", "failure.inject"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Errorf("kinds = %v, want %v", kinds, want)
	}
	if !sawFlow {
		t.Error("send.end line missing flow id")
	}
}

func TestWriteChromeShape(t *testing.T) {
	_, tr := newTestTracer(0)
	rec := tr.Rank(0)
	rec.PhaseBegin("map")
	rec.CollBeginN("barrier", 0, 0)
	rec.CollEndN("barrier", 0, 0)
	rec.PhaseEnd("map")
	rec.RecoveryBegin()
	rec.RecoveryEnd()
	rec.CopierDrain("map/t0", 128)
	tr.Global().FailureInject(3)

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Events()); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}

	var phs []string
	sawCopierTid, sawWorldPid := false, false
	for _, ev := range out.TraceEvents {
		phs = append(phs, ev["ph"].(string))
		if ev["tid"] == float64(chromeTidCopier) && ev["ph"] == "i" {
			sawCopierTid = true
		}
		if ev["pid"] == float64(chromeWorldPID) && ev["ph"] == "i" {
			sawWorldPid = true
		}
	}
	joined := strings.Join(phs, "")
	for _, want := range []string{"M", "B", "E", "b", "e", "i"} {
		if !strings.Contains(joined, want) {
			t.Errorf("chrome output missing %q events (got %s)", want, joined)
		}
	}
	if !sawCopierTid {
		t.Error("copier drain not on the copier thread track")
	}
	if !sawWorldPid {
		t.Error("failure injection not on the world track")
	}
}

// WriteChrome renders what it is given, not what a ring kept: a stream read
// back from its file renders every event, even those the rank's ring has
// overwritten, and a trace round-tripped through JSONL renders as the live
// events do.
func TestWriteChromeRendersReadBackStream(t *testing.T) {
	_, tr := newTestTracer(2)
	var stream bytes.Buffer
	tr.StreamJSONL(&stream)
	rec := tr.Rank(0)
	rec.PhaseBegin("map")
	rec.CollBeginN("barrier", 0, 0)
	rec.CollEndN("barrier", 0, 0)
	rec.PhaseEnd("map")
	if err := tr.FlushStream(); err != nil {
		t.Fatal(err)
	}
	events, rr, err := ReadJSONL(&stream)
	if err != nil || !rr.Clean() {
		t.Fatalf("ReadJSONL: %v, %v", err, rr.Err())
	}
	if len(events) != 4 || len(tr.Events()) != 2 {
		t.Fatalf("%d events streamed, %d retained; want 4 and 2", len(events), len(tr.Events()))
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, events); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"phase:map","cat":"phase","ph":"B"`) {
		t.Errorf("chrome output of the stream lacks the overwritten phase begin:\n%s", buf.String())
	}

	var ring, readBack bytes.Buffer
	if err := tr.WriteJSONL(&ring); err != nil {
		t.Fatal(err)
	}
	retained := append(tr.Events(), tr.DropEvents()...)
	events, _, err = ReadJSONL(&ring)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteChrome(&buf, retained); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&readBack, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), readBack.Bytes()) {
		t.Errorf("a JSONL round trip changed the chrome output:\n%s\nvs\n%s", buf.String(), readBack.String())
	}
}

func TestSummarizeBasics(t *testing.T) {
	sim, tr := newTestTracer(0)
	rec := tr.Rank(0)
	sim.Spawn("p", func(p *vtime.Proc) {
		rec.PhaseBegin("map")
		p.Sleep(10 * time.Millisecond)
		rec.PhaseEnd("map")
		rec.RecoveryBegin()
		p.Sleep(3 * time.Millisecond)
		rec.RecoveryEnd()
		// Nested collectives: only the top-level span counts.
		rec.CollBeginN("allreduce", 0, 0)
		rec.CollBeginN("allgather", 0, 0)
		p.Sleep(2 * time.Millisecond)
		rec.CollEndN("allgather", 0, 0)
		p.Sleep(1 * time.Millisecond)
		rec.CollEndN("allreduce", 0, 0)
		rec.SendEnd(1, 0, 100, 1)
		rec.RecvEnd(1, 0, 200, 2)
		rec.CkptCommit("map/t0", 50, 2)
		rec.CopierDrain("map/t0", 50)
		rec.CkptLoad("map/t0", 50, 2)
		rec.TaskCommit("map", 0, 10)
		// Unmatched begin: contributes nothing.
		rec.PhaseBegin("reduce")
	})
	sim.Run()

	s := Summarize(tr.Events())
	rs := s.Rank(0)
	if rs.Phase["map"] != 10*time.Millisecond {
		t.Errorf("map time = %v, want 10ms", rs.Phase["map"])
	}
	if rs.Phase["reduce"] != 0 {
		t.Errorf("unmatched begin contributed %v", rs.Phase["reduce"])
	}
	if rs.Recoveries != 1 || rs.RecoveryTime != 3*time.Millisecond {
		t.Errorf("recovery = %d/%v, want 1/3ms", rs.Recoveries, rs.RecoveryTime)
	}
	if rs.CollTime != 3*time.Millisecond {
		t.Errorf("coll time = %v, want 3ms (top-level span only)", rs.CollTime)
	}
	if rs.Sends != 1 || rs.SendBytes != 100 || rs.Recvs != 1 || rs.RecvBytes != 200 {
		t.Errorf("p2p = %d/%d %d/%d", rs.Sends, rs.SendBytes, rs.Recvs, rs.RecvBytes)
	}
	if rs.CkptBytes != 50 || rs.CkptFrames != 2 || rs.CopierBytes != 50 ||
		rs.RecoveredBytes != 50 || rs.RecoveredFrames != 2 {
		t.Errorf("ckpt aggregates wrong: %+v", rs)
	}
	if rs.TaskCommits != 1 {
		t.Errorf("task commits = %d", rs.TaskCommits)
	}
}
