// End-to-end tests: a traced wordcount failover run must yield a valid
// Chrome trace, a Summarize() that reproduces the runner's RankMetrics
// exactly, and a causally ordered detect -> revoke -> shrink -> agree
// event chain on every survivor.
package trace_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
	"ftmrmpi/internal/failure"
	"ftmrmpi/internal/mpi"
	"ftmrmpi/internal/trace"
	"ftmrmpi/internal/workloads"
)

// tracedFailover runs a small wordcount job with a kill injected on one
// rank at the given phase and returns the handle and the attached tracer.
func tracedFailover(t *testing.T, killRank int, killPhase core.Phase) (*core.Handle, *trace.Tracer) {
	t.Helper()
	cfg := cluster.Default()
	cfg.Nodes = 2
	cfg.PPN = 4
	clus := cluster.New(cfg)
	clus.Trace = trace.New(clus.Sim, 1<<20) // deep rings: nothing may drop

	p := workloads.DefaultWordcount()
	p.Chunks = 32
	p.Lines = 32
	p.WordsLine = 4
	p.Vocab = 500
	workloads.GenCorpus(clus, "in/job", p)

	spec := workloads.WordcountSpec("job", "in/job", 8, p)
	spec.Model = core.ModelDetectResumeWC
	spec.CkptInterval = 50
	spec.LoadBalance = true

	h := core.RunSingle(clus, spec)
	failure.KillOnPhase(h, killRank, killPhase, time.Millisecond)
	clus.Sim.Run()

	res := h.Result()
	if res == nil || res.Aborted {
		t.Fatalf("failover job did not complete: %+v", res)
	}
	if len(res.FailedRanks) != 1 || res.FailedRanks[0] != killRank {
		t.Fatalf("FailedRanks = %v, want [%d]", res.FailedRanks, killRank)
	}
	for r := range clus.Trace.Ranks() {
		if d := clus.Trace.Dropped(r); d != 0 {
			t.Fatalf("rank %d dropped %d events; enlarge the test ring", r, d)
		}
	}
	return h, clus.Trace
}

// TestChromeTraceWordcountFailover validates the shape of the Chrome
// trace_event output for a real failover run: one named track per rank,
// phase/collective duration spans, instants for the kill, and matched
// async recovery spans on every survivor.
func TestChromeTraceWordcountFailover(t *testing.T) {
	const killRank = 3
	h, tr := tracedFailover(t, killRank, core.PhaseReduce)

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tr.Events()); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	namedTracks := map[float64]bool{} // pid -> saw process_name metadata
	names := map[string]bool{}
	asyncOpen := map[string]int{} // "pid/id" -> depth
	var asyncMatched int
	sawInject, sawKill := false, false
	for _, ev := range out.TraceEvents {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		pid, _ := ev["pid"].(float64)
		names[name] = true
		switch ph {
		case "M":
			if name == "process_name" {
				namedTracks[pid] = true
			}
		case "b", "e":
			key := fmt.Sprintf("%v/%v", ev["pid"], ev["id"])
			if ph == "b" {
				asyncOpen[key]++
			} else {
				asyncOpen[key]--
				asyncMatched++
			}
		case "i":
			if name == fmt.Sprintf("inject:w%d", killRank) {
				sawInject = true
			}
			if name == fmt.Sprintf("kill:w%d", killRank) {
				sawKill = true
			}
		}
	}

	for r := 0; r < h.World.Size(); r++ {
		if !namedTracks[float64(r)] {
			t.Errorf("rank %d has no process_name metadata track", r)
		}
	}
	for _, want := range []string{"phase:map", "phase:reduce", "coll:barrier", "recovery"} {
		if !names[want] {
			t.Errorf("chrome trace has no %q events", want)
		}
	}
	if !sawInject || !sawKill {
		t.Errorf("failure instants missing: inject=%v kill=%v", sawInject, sawKill)
	}
	for key, depth := range asyncOpen {
		if depth != 0 {
			t.Errorf("async span %s left unbalanced (depth %d)", key, depth)
		}
	}
	// Every survivor records at least one complete recovery span.
	if want := h.World.Size() - 1; asyncMatched < want {
		t.Errorf("matched %d async recovery ends, want >= %d", asyncMatched, want)
	}
}

// TestSummarizeMatchesRankMetrics cross-checks the event-derived summary
// against the runner's hand-maintained counters: for every reporting rank
// the phase totals and recovery time must agree exactly (events are
// emitted at the same virtual instants the metrics accumulate).
func TestSummarizeMatchesRankMetrics(t *testing.T) {
	h, tr := tracedFailover(t, 2, core.PhaseMap)
	res := h.Result()
	s := trace.Summarize(tr.Events())

	checked := 0
	for r, m := range res.Ranks {
		if m == nil {
			continue
		}
		rs := s.Rank(r)
		if rs == nil {
			t.Errorf("rank %d has metrics but no trace summary", r)
			continue
		}
		for _, ph := range []core.Phase{core.PhaseInit, core.PhaseMap,
			core.PhaseShuffle, core.PhaseConvert, core.PhaseReduce} {
			if got, want := rs.Phase[string(ph)], m.PhaseTime[ph]; got != want {
				t.Errorf("rank %d phase %s: trace %v, metrics %v", r, ph, got, want)
			}
		}
		if got, want := rs.RecoveryTime, m.PhaseTime[core.PhaseRecovery]; got != want {
			t.Errorf("rank %d recovery: trace %v, metrics %v", r, got, want)
		}
		checked++
	}
	if checked < h.World.Size()-1 {
		t.Fatalf("only %d ranks compared", checked)
	}

	// The killed rank's metrics slot may exist (it reported partial phases
	// before dying); its completed phases must still match. Whole-job sanity:
	// summed map time over the summary equals the Result aggregate.
	var traceMap time.Duration
	for _, rs := range s.Ranks {
		if rs.Rank >= 0 {
			traceMap += rs.Phase[string(core.PhaseMap)]
		}
	}
	if want := res.PhaseTotal(core.PhaseMap); traceMap != want {
		t.Errorf("aggregate map time: trace %v, metrics %v", traceMap, want)
	}
}

// TestRecoveryCausalOrder kills a rank mid-map and asserts that every
// survivor's event stream contains the recovery protocol steps in causal
// (Seq) order: failure detected, communicator revoked, shrink entered,
// agreement completed, shrink finished, recovery span closed.
func TestRecoveryCausalOrder(t *testing.T) {
	const killRank = 5
	h, tr := tracedFailover(t, killRank, core.PhaseMap)

	for r := 0; r < h.World.Size(); r++ {
		if r == killRank {
			continue
		}
		evs := tr.EventsFor(r)
		first := map[trace.Kind]*trace.Event{}
		for i := range evs {
			if _, seen := first[evs[i].Kind]; !seen {
				first[evs[i].Kind] = &evs[i]
			}
		}
		chain := []trace.Kind{
			trace.KindFailureDetect,
			trace.KindRevoke,
			trace.KindShrinkBegin,
			trace.KindAgreeBegin,
			trace.KindAgreeEnd,
			trace.KindShrinkEnd,
			trace.KindRecoveryEnd,
		}
		var prev *trace.Event
		for _, k := range chain {
			ev := first[k]
			if ev == nil {
				t.Errorf("rank %d: no %v event", r, k)
				break
			}
			if prev != nil {
				if ev.Seq <= prev.Seq {
					t.Errorf("rank %d: %v (seq %d) not after %v (seq %d)",
						r, k, ev.Seq, prev.Kind, prev.Seq)
				}
				if ev.VT < prev.VT {
					t.Errorf("rank %d: %v at %v precedes %v at %v in virtual time",
						r, k, ev.VT, prev.Kind, prev.VT)
				}
			}
			prev = ev
		}
		// The recovery span must open before the protocol runs.
		if rb, sb := first[trace.KindRecoveryBegin], first[trace.KindShrinkBegin]; rb == nil {
			t.Errorf("rank %d: no recovery.begin", r)
		} else if sb != nil && rb.Seq >= sb.Seq {
			t.Errorf("rank %d: recovery.begin (seq %d) after shrink.begin (seq %d)",
				r, rb.Seq, sb.Seq)
		}
	}

	// The victim's death is on the world track and its own track.
	var sawWorldInject, sawVictimKill bool
	for _, ev := range tr.EventsFor(trace.GlobalRank) {
		if ev.Kind == trace.KindFailureInject && ev.A == killRank {
			sawWorldInject = true
		}
	}
	for _, ev := range tr.EventsFor(killRank) {
		if ev.Kind == trace.KindFailureKill {
			sawVictimKill = true
		}
	}
	if !sawWorldInject {
		t.Error("no failure.inject for the victim on the world track")
	}
	if !sawVictimKill {
		t.Error("no failure.kill on the victim's track")
	}
}

// TestChromeCopierThreadInterleavesWithMain checks the paper's Fig 7 claim
// as rendered by the Chrome sink: local-copier drains get B/E spans on the
// dedicated copier thread track (tid 2) of each rank's process, and at least
// one of them runs concurrently with a phase span on the same rank's main
// thread (tid 1) — the background copy overlaps foreground compute instead
// of serializing with it.
func TestChromeCopierThreadInterleavesWithMain(t *testing.T) {
	const killRank = 3
	_, tr := tracedFailover(t, killRank, core.PhaseReduce)

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tr.Events()); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}

	type span struct{ begin, end float64 }
	copier := map[int][]span{}     // pid -> matched copy:* spans on tid 2
	phases := map[int][]span{}     // pid -> matched phase spans on tid 1
	open := map[[2]int][]float64{} // (pid, tid) -> B stack (Chrome B/E pair per-thread, LIFO)
	for _, ev := range out.TraceEvents {
		if ev.Ph != "B" && ev.Ph != "E" {
			continue
		}
		onCopier := ev.TID == 2 && ev.Cat == "ckpt"
		onMain := ev.TID == 1 && ev.Cat == "phase"
		if !onCopier && !onMain {
			continue
		}
		key := [2]int{ev.PID, ev.TID}
		if ev.Ph == "B" {
			open[key] = append(open[key], ev.TS)
			continue
		}
		stack := open[key]
		if len(stack) == 0 {
			t.Fatalf("unmatched E event %q on pid %d tid %d", ev.Name, ev.PID, ev.TID)
		}
		sp := span{stack[len(stack)-1], ev.TS}
		open[key] = stack[:len(stack)-1]
		if onCopier {
			copier[ev.PID] = append(copier[ev.PID], sp)
		} else {
			phases[ev.PID] = append(phases[ev.PID], sp)
		}
	}
	for key, stack := range open {
		// The victim dies mid-span; only survivors must balance their spans.
		if key[0] != killRank && len(stack) != 0 {
			t.Errorf("pid %d tid %d left %d spans unclosed", key[0], key[1], len(stack))
		}
	}
	if len(copier) == 0 {
		t.Fatal("no copy:* spans on any copier thread track (tid 2)")
	}

	interleaved := 0
	for pid, cs := range copier {
		for _, c := range cs {
			for _, m := range phases[pid] {
				if c.begin < m.end && m.begin < c.end {
					interleaved++
				}
			}
		}
	}
	if interleaved == 0 {
		t.Fatal("no copier span overlaps a main-thread phase span on its own rank: background copies are serialized with compute")
	}
}

// benchPingPong measures a 2-rank ping-pong through the full simulated MPI
// stack, with and without a tracer attached, to bound the end-to-end cost
// of the disabled instrumentation (compare the two benchmarks).
func benchPingPong(b *testing.B, traced bool) {
	for i := 0; i < b.N; i++ {
		cfg := cluster.Default()
		cfg.Nodes = 1
		cfg.PPN = 2
		clus := cluster.New(cfg)
		if traced {
			clus.Trace = trace.New(clus.Sim, 1<<12)
		}
		buf := make([]byte, 64)
		mpi.Launch(clus, 2, func(c *mpi.Comm) {
			for round := 0; round < 500; round++ {
				if c.Rank() == 0 {
					_ = c.SendVal(1, 1, buf, len(buf))
					_, _ = c.Recv(1, 2)
				} else {
					_, _ = c.Recv(0, 1)
					_ = c.SendVal(0, 2, buf, len(buf))
				}
			}
		})
		clus.Sim.Run()
	}
}

func BenchmarkTracerOverheadPingPongDisabled(b *testing.B) { benchPingPong(b, false) }
func BenchmarkTracerOverheadPingPongEnabled(b *testing.B)  { benchPingPong(b, true) }
