// End-to-end tests for message flow events and trace diffing: a traced
// failover run must export matched "s"/"f" Chrome flow arrows, satisfy the
// flow invariants, and two identical-seed runs must diff to zero divergence
// while runs with different kill schedules must not.
package trace_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
	"ftmrmpi/internal/failure"
	"ftmrmpi/internal/trace"
	"ftmrmpi/internal/workloads"
)

// TestChromeFlowArrowsWordcountFailover checks the flow-event view: every
// send.end with a flow id exports an "s" event, every matching recv.end an
// "f" event with the same id and bp="e", starts precede finishes in trace
// time, and at least one arrow crosses rank tracks (a real p2p message, not
// a self-send).
func TestChromeFlowArrowsWordcountFailover(t *testing.T) {
	_, tr := tracedFailover(t, 3, core.PhaseReduce)

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tr.Events()); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var out struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			ID  int     `json:"id"`
			TS  float64 `json:"ts"`
			PID int     `json:"pid"`
			Cat string  `json:"cat"`
			BP  string  `json:"bp"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}

	type end struct {
		ts  float64
		pid int
	}
	starts := map[int]end{}
	finishes := map[int]end{}
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "s":
			if ev.Cat != "p2p" {
				t.Fatalf("flow start with cat %q, want p2p", ev.Cat)
			}
			if _, dup := starts[ev.ID]; dup {
				t.Fatalf("duplicate flow start id %d", ev.ID)
			}
			starts[ev.ID] = end{ev.TS, ev.PID}
		case "f":
			if ev.BP != "e" {
				t.Fatalf("flow finish id %d without bp=e binding", ev.ID)
			}
			if _, dup := finishes[ev.ID]; dup {
				t.Fatalf("duplicate flow finish id %d", ev.ID)
			}
			finishes[ev.ID] = end{ev.TS, ev.PID}
		}
	}
	if len(starts) == 0 || len(finishes) == 0 {
		t.Fatalf("no flow arrows exported: %d starts, %d finishes", len(starts), len(finishes))
	}

	crossTrack := 0
	for id, f := range finishes {
		s, ok := starts[id]
		if !ok {
			t.Fatalf("flow finish %d has no start", id)
		}
		if f.ts < s.ts {
			t.Errorf("flow %d finishes at ts %v before its start at %v", id, f.ts, s.ts)
		}
		if f.pid != s.pid {
			crossTrack++
		}
	}
	if crossTrack == 0 {
		t.Fatal("no flow arrow crosses rank tracks; send->recv linking is broken")
	}
	// Unmatched starts are legal (eager sends to the killed rank), but the
	// overwhelming majority must pair up on a run this small.
	if len(finishes)*2 < len(starts) {
		t.Errorf("only %d of %d flow starts finished", len(finishes), len(starts))
	}
}

// TestFlowInvariantsWordcountFailover runs the `ftmr-trace flows` engine
// over a real failover trace: no dangling recvs, no duplicate ids, no byte
// mismatches, no virtual-time inversions — even with a rank killed mid-run.
func TestFlowInvariantsWordcountFailover(t *testing.T) {
	_, tr := tracedFailover(t, 2, core.PhaseMap)
	fr := trace.CheckFlows(tr.Events())
	if !fr.OK() {
		t.Fatalf("flow invariants violated on a failover run: %v", fr.Violations)
	}
	if fr.Matched == 0 {
		t.Fatal("no matched flows on a run with shuffle traffic")
	}
	t.Logf("flows: %d sends, %d recvs, %d matched, %d unmatched (eager), %d zero-id recvs",
		fr.Sends, fr.Recvs, fr.Matched, fr.UnmatchedSends, fr.ZeroRecvs)
}

// TestFlowIDsUniqueAcrossRestart is `ftmr-sim -model cr -kill-phase reduce
// -restart` as `ftmr-trace flows` sees it: the aborted job and its
// resubmission are two MPI worlds writing one trace, and the second world's
// message ids must continue where the first stopped. A per-world counter
// restarted them at 1, and every early id read as "sent 2 times". (The kill
// lands in reduce so that the first world has sent something: its map-phase
// status gossip. No collective sends a message.)
func TestFlowIDsUniqueAcrossRestart(t *testing.T) {
	cfg := cluster.Default()
	cfg.Nodes, cfg.PPN = 2, 4
	clus := cluster.New(cfg)
	clus.Trace = trace.New(clus.Sim, 1<<20)

	p := workloads.DefaultWordcount()
	p.Chunks, p.Lines, p.WordsLine, p.Vocab = 32, 32, 4, 500
	workloads.GenCorpus(clus, "in/crjob", p)
	spec := workloads.WordcountSpec("crjob", "in/crjob", 8, p)
	spec.Model = core.ModelCheckpointRestart
	spec.CkptInterval = 50

	h := core.RunSingle(clus, spec)
	failure.KillOnPhase(h, 2, core.PhaseReduce, time.Millisecond)
	clus.Sim.Run()
	if res := h.Result(); res == nil || !res.Aborted {
		t.Fatalf("a checkpoint/restart job that lost a rank did not abort: %+v", res)
	}
	firstWorld := trace.CheckFlows(clus.Trace.Events()).Sends

	spec.Resume = true
	h2 := core.RunSingle(clus, spec)
	clus.Sim.Run()
	if res := h2.Result(); res == nil || res.Aborted {
		t.Fatalf("the resubmitted job did not complete: %+v", res)
	}
	fr := trace.CheckFlows(clus.Trace.Events())
	if !fr.OK() {
		t.Fatalf("flow invariants violated across the restart: %d violations, first: %v", len(fr.Violations), fr.Violations[0])
	}
	if firstWorld == 0 || fr.Sends <= firstWorld {
		t.Fatalf("%d sends before the restart, %d after it: both worlds must have sent", firstWorld, fr.Sends)
	}
}

// TestReplicaPushFlowsPairUp turns on the diskless replica tier and checks
// that its push traffic rides the same message-id flow machinery as every
// other message: replica-tagged send.end events appear in the trace, the
// flow invariants hold for the whole run, and at least one replica push is
// matched to a recv.end on the partner rank (drained pushes consume the
// banked message through the normal recv path). Unmatched replica sends are
// legal — pushes still banked in a mailbox when the job ends, or discarded
// by a shrink — but they must be unmatched sends, never violations.
func TestReplicaPushFlowsPairUp(t *testing.T) {
	cfg := cluster.Default()
	cfg.Nodes = 2
	cfg.PPN = 4
	clus := cluster.New(cfg)
	clus.Trace = trace.New(clus.Sim, 1<<20)

	p := workloads.DefaultWordcount()
	p.Chunks = 32
	p.Lines = 32
	p.WordsLine = 4
	p.Vocab = 500
	workloads.GenCorpus(clus, "in/rjob", p)

	spec := workloads.WordcountSpec("rjob", "in/rjob", 8, p)
	spec.Model = core.ModelDetectResumeWC
	spec.CkptInterval = 25
	spec.LoadBalance = true
	spec.ReplicaK = 2

	h := core.RunSingle(clus, spec)
	failure.KillOnPhase(h, 5, core.PhaseReduce, time.Millisecond)
	clus.Sim.Run()
	if res := h.Result(); res == nil || res.Aborted {
		t.Fatalf("replica failover job did not complete: %+v", res)
	}

	evs := clus.Trace.Events()
	fr := trace.CheckFlows(evs)
	if !fr.OK() {
		t.Fatalf("flow invariants violated with replica pushes: %v", fr.Violations)
	}

	// Replica pushes carry tags at or above the core replica tag base
	// (1<<20), keeping them distinct from shuffle/status/exchange traffic.
	const tagReplicaBase = 1 << 20
	recvFlows := make(map[uint64]bool)
	for _, ev := range evs {
		if ev.Kind == trace.KindRecvEnd && ev.Flow != 0 {
			recvFlows[ev.Flow] = true
		}
	}
	pushes, matched := 0, 0
	for _, ev := range evs {
		if ev.Kind != trace.KindSendEnd || ev.B < tagReplicaBase {
			continue
		}
		pushes++
		if recvFlows[ev.Flow] {
			matched++
		}
	}
	if pushes == 0 {
		t.Fatal("no replica-tagged send.end events: replica traffic is invisible to the tracer")
	}
	if matched == 0 {
		t.Fatalf("none of %d replica pushes matched a recv.end; drains never consume them", pushes)
	}
	t.Logf("replica pushes: %d sent, %d matched (%d still banked/lost)",
		pushes, matched, pushes-matched)
}

// TestDiffIdenticalRunsZeroDivergence is the determinism cross-check behind
// `ftmr-trace diff` on two same-seed runs: the whole simulation is
// deterministic, so two identical configurations must produce traces that
// align with zero divergence at zero tolerance.
func TestDiffIdenticalRunsZeroDivergence(t *testing.T) {
	_, trA := tracedFailover(t, 3, core.PhaseReduce)
	_, trB := tracedFailover(t, 3, core.PhaseReduce)
	rep := trace.Diff(trA.Events(), trB.Events(), trace.DiffOptions{})
	if rep.Diverged() {
		t.Fatalf("identical-seed runs diverged: first = %s (%d total)",
			rep.First(), len(rep.Divergences))
	}
	if rep.Aligned == 0 {
		t.Fatal("nothing aligned; traces are empty")
	}
}

// TestDiffDifferentKillSchedulesDiverge diffs a map-phase kill against a
// reduce-phase kill of a different rank: the report must flag divergence
// and name a first event with populated fields.
func TestDiffDifferentKillSchedulesDiverge(t *testing.T) {
	_, trA := tracedFailover(t, 2, core.PhaseMap)
	_, trB := tracedFailover(t, 3, core.PhaseReduce)
	rep := trace.Diff(trA.Events(), trB.Events(), trace.DiffOptions{})
	if !rep.Diverged() {
		t.Fatal("different kill schedules reported identical traces")
	}
	first := rep.First()
	if first == nil || first.Kind == 0 {
		t.Fatalf("First() = %+v, want a populated divergence", first)
	}
	if first.A == nil && first.B == nil {
		t.Fatal("first divergence carries no event on either side")
	}
}
