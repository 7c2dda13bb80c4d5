// Package critpath reconstructs the causal DAG of one traced run and
// computes its virtual-time critical path from job start to final commit.
//
// The paper's whole evaluation is time decomposition (Figs 3–9), but
// aggregate shares cannot answer "why did THIS run take THIS long?": a
// checkpoint stall fully overlapped by a straggler costs nothing, while a
// millisecond of recovery on the longest dependency chain costs a
// millisecond of makespan. This package walks the trace backwards from the
// latest job.end anchor, at each event binding to its latest causal
// predecessor — the previous event on the same logical thread, the send.end
// matched by a recv.end's flow id, the latest entrant of a collective
// instance, or the copier activity a drain stall waited on — and attributes
// every elementary interval of the resulting chain to a category. The
// intervals telescope, so category totals sum to the makespan exactly (in
// integer nanoseconds); DESIGN.md §"Critical path" is the edge-rule
// contract.
//
// Analyze is deterministic: the same event stream yields byte-identical
// reports, and every tie (equal virtual time) is broken by the
// tracer-global sequence number, which is itself execution order.
package critpath

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"ftmrmpi/internal/trace"
)

// Segment is one maximal run of consecutive critical-path intervals on the
// same rank with the same category and phase, in forward (virtual-time)
// order.
type Segment struct {
	Rank     int           // rank whose wait/work the interval is charged to
	Category Category      // attribution of the interval
	Phase    string        // runner phase open on the rank ("" when none)
	From, To time.Duration // virtual-time bounds of the merged run
	Events   int           // elementary path steps merged into this segment
}

// Dur returns the segment's virtual-time extent.
func (s Segment) Dur() time.Duration { return s.To - s.From }

// Report is the outcome of one critical-path analysis. All durations are
// virtual time; ByCategory sums to Makespan exactly.
type Report struct {
	JobID    string        // Name of the job.end anchor
	Start    time.Duration // virtual time of the earliest job.begin
	End      time.Duration // virtual time of the latest job.end
	Makespan time.Duration // End - Start

	Segments   []Segment // merged path segments in forward order
	Steps      int       // elementary path steps before merging
	CrossEdges int       // steps that hopped rank or thread

	ByCategory map[Category]time.Duration // critical-path time per category
	ByRank     map[int]time.Duration      // critical-path time per rank
	ByPhase    map[string]time.Duration   // critical-path time per open phase

	// Dropped is the ring-overwrite count found in the stream (trace.drops
	// markers); non-zero marks the whole report Unreliable: the DAG has
	// holes and the path may bind to wrong predecessors.
	Dropped int64
	// Unreliable is true when Dropped > 0; every renderer must surface it.
	Unreliable bool
}

// Share returns a category's fraction of the makespan (0 when empty).
func (r *Report) Share(c Category) float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.ByCategory[c]) / float64(r.Makespan)
}

// RecoveryShare returns the summed share of the four recovery categories —
// the quantity the metrics plane gates on ("recovery on the critical path").
func (r *Report) RecoveryShare() float64 {
	return r.Share(CatRecoveryInit) + r.Share(CatRecoveryLoad) +
		r.Share(CatRecoverySkip) + r.Share(CatRecoveryReprocess)
}

// copierThread reports whether a kind belongs to the copier's logical
// thread rather than the rank's main thread. Program order must not link
// across the two: the copier runs concurrently with the main thread, and
// chaining them would fabricate dependencies.
func copierThread(k trace.Kind) bool {
	return k == trace.KindCopierBegin || k == trace.KindCopierEnd || k == trace.KindCopierDrain
}

// threadKey identifies one logical thread (rank × main/copier).
type threadKey struct {
	rank   int
	copier bool
}

// collKey identifies one collective instance: the (communicator id, op
// sequence) stamp plus the op name. Legacy traces without the stamp fall
// back to (0, 0, op), which the open-span discipline below still resolves
// per concurrent instance.
type collKey struct {
	comm, seq int64
	op        string
}

// Analyze reconstructs the causal DAG from an event stream (as returned by
// trace.ReadJSONL or Tracer.Events) and walks the critical path. It fails —
// rather than reporting a silently empty or zero-length path — when the
// stream has no events, no job.begin anchor, no job.end (final commit)
// anchor, or a non-positive makespan.
func Analyze(events []trace.Event) (*Report, error) {
	if len(events) == 0 {
		return nil, errors.New("critpath: empty trace: no events to analyze (was tracing enabled?)")
	}
	evs := make([]trace.Event, 0, len(events))
	var dropped int64
	for _, ev := range events {
		if ev.Kind == trace.KindDrops {
			dropped += ev.A
			continue // synthetic end-of-file marker, not a DAG node
		}
		evs = append(evs, ev)
	}
	if len(evs) == 0 {
		return nil, errors.New("critpath: trace contains only drop markers — every event was overwritten")
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })

	// Anchors: earliest job.begin, latest job.end (ties by Seq — execution
	// order). A missing anchor means the trace predates the anchor events,
	// was truncated, or the run died before its final commit; the walk has
	// no defined source/sink either way.
	startIdx, endIdx := -1, -1
	for i, ev := range evs {
		switch ev.Kind {
		case trace.KindJobBegin:
			if startIdx < 0 || ev.VT < evs[startIdx].VT {
				startIdx = i
			}
		case trace.KindJobEnd:
			if endIdx < 0 || ev.VT > evs[endIdx].VT || (ev.VT == evs[endIdx].VT && ev.Seq > evs[endIdx].Seq) {
				endIdx = i
			}
		}
	}
	if startIdx < 0 {
		return nil, errors.New("critpath: no job.begin anchor in trace (recorded before anchors existed, or the job start was overwritten)")
	}
	if endIdx < 0 {
		return nil, errors.New("critpath: no job.end (final commit) anchor in trace — the run aborted before committing or the trace is truncated")
	}
	start, end := evs[startIdx], evs[endIdx]
	if end.VT <= start.VT {
		return nil, fmt.Errorf("critpath: degenerate anchors: job.end at %v is not after job.begin at %v", end.VT, start.VT)
	}

	// Forward pass: per-thread program order, per-event context (open phase
	// and recovery span on the rank), and cross edges.
	prev := make([]int, len(evs))       // program-order predecessor per event
	cross := make([]int, len(evs))      // cross-thread/rank causal predecessor
	phaseOf := make([]string, len(evs)) // phase open on the rank just before the event
	inRec := make([]bool, len(evs))     // recovery span open just before the event

	lastOn := make(map[threadKey]int)    // thread -> last event index
	lastMain := make(map[int]int)        // rank -> last main-thread event index
	sendByFlow := make(map[uint64]int)   // flow id -> send.end index
	openColl := make(map[collKey][]int)  // instance -> open begin indices
	openKind := make(map[trace.Kind]int) // shrink/agree open-begin sweep (see below)
	curPhase := make(map[int]string)
	curRec := make(map[int]bool)

	// bindOpen picks the latest (VT, then Seq) open begin of an instance
	// strictly before the end event — the fan-in entrant that released it.
	bindOpen := func(opens []int, endAt int) int {
		best := -1
		for _, b := range opens {
			if evs[b].Seq >= evs[endAt].Seq || evs[b].VT > evs[endAt].VT {
				continue
			}
			if best < 0 || evs[b].VT > evs[best].VT || (evs[b].VT == evs[best].VT && evs[b].Seq > evs[best].Seq) {
				best = b
			}
		}
		return best
	}

	for i, ev := range evs {
		phaseOf[i] = curPhase[ev.Rank]
		inRec[i] = curRec[ev.Rank]

		tk := threadKey{ev.Rank, copierThread(ev.Kind)}
		if p, ok := lastOn[tk]; ok {
			prev[i] = p
		} else {
			prev[i] = -1
		}
		lastOn[tk] = i

		cross[i] = -1
		switch ev.Kind {
		case trace.KindPhaseBegin:
			curPhase[ev.Rank] = ev.Name
		case trace.KindPhaseEnd:
			curPhase[ev.Rank] = ""
		case trace.KindRecoveryBegin:
			curRec[ev.Rank] = true
		case trace.KindRecoveryEnd:
			curRec[ev.Rank] = false
		case trace.KindSendEnd:
			if ev.Flow != 0 {
				sendByFlow[ev.Flow] = i
			}
		case trace.KindRecvEnd:
			// The message consumed by this receive could not have arrived
			// before its send completed.
			if s, ok := sendByFlow[ev.Flow]; ok {
				cross[i] = s
			}
		case trace.KindCollBegin:
			k := collKey{ev.A, ev.B, ev.Name}
			openColl[k] = append(openColl[k], i)
		case trace.KindCollEnd:
			// Fan-in: a collective's exit depends on its participants'
			// entries. No collective sends a message, so this is the only
			// edge into a coll.end. Exact when every participant leaves at
			// once; a rank that leaves after the last entrant has already
			// left (a tree or a ring releases ranks at different instants)
			// binds to the latest entry still open, which can be its own.
			k := collKey{ev.A, ev.B, ev.Name}
			cross[i] = bindOpen(openColl[k], i)
			// Retire this rank's own entry from the open set.
			opens := openColl[k]
			for j := len(opens) - 1; j >= 0; j-- {
				if evs[opens[j]].Rank == ev.Rank {
					openColl[k] = append(opens[:j], opens[j+1:]...)
					break
				}
			}
		case trace.KindShrinkBegin, trace.KindAgreeBegin:
			// Shrink/agree rounds are unstamped; at most one instance per
			// communicator is in flight and every survivor participates,
			// so a latest-open sweep keyed by kind resolves them.
			if b, ok := openKind[ev.Kind]; !ok || evs[i].VT > evs[b].VT {
				openKind[ev.Kind] = i
			}
		case trace.KindShrinkEnd:
			if b, ok := openKind[trace.KindShrinkBegin]; ok && evs[b].Seq < ev.Seq && evs[b].VT <= ev.VT {
				cross[i] = b
			}
		case trace.KindAgreeEnd:
			if b, ok := openKind[trace.KindAgreeBegin]; ok && evs[b].Seq < ev.Seq && evs[b].VT <= ev.VT {
				cross[i] = b
			}
		case trace.KindCkptStall:
			// A phase-boundary drain stall completes when the copier
			// finishes; bind to the rank's latest copier activity so
			// copier time can surface on the path.
			if ev.Name == "drain" {
				if c, ok := lastOn[threadKey{ev.Rank, true}]; ok && evs[c].Seq < ev.Seq && evs[c].VT <= ev.VT {
					cross[i] = c
				}
			}
		case trace.KindCopierBegin:
			// The drained stream was enqueued by the main thread at some
			// earlier point; bind to the main thread's latest event so the
			// copier chain roots back into program order instead of
			// floating to the job source.
			if m, ok := lastMain[ev.Rank]; ok && evs[m].Seq < ev.Seq && evs[m].VT <= ev.VT {
				cross[i] = m
			}
		}
		if !copierThread(ev.Kind) {
			lastMain[ev.Rank] = i
		}
	}

	// Backward walk. Each step binds the current event to its latest causal
	// predecessor: max (VT, Seq) among program order and cross edge, both
	// filtered to Seq < cur.Seq && VT <= cur.VT — so Seq strictly decreases,
	// which is both the termination and the acyclicity proof. An event with
	// no eligible predecessor (or one beyond the start anchor) clamps to the
	// virtual source at the job.begin VT.
	type step struct {
		at       int           // event index the elementary interval ends at
		from     time.Duration // interval start (predecessor VT, clamped)
		crossHop bool
	}
	var steps []step
	cur := endIdx
	for cur != startIdx {
		ev := evs[cur]
		bind := -1
		for _, cand := range [2]int{prev[cur], cross[cur]} {
			if cand < 0 || evs[cand].Seq >= ev.Seq || evs[cand].VT > ev.VT {
				continue
			}
			if bind < 0 || evs[cand].VT > evs[bind].VT || (evs[cand].VT == evs[bind].VT && evs[cand].Seq > evs[bind].Seq) {
				bind = cand
			}
		}
		if bind < 0 || evs[bind].VT < start.VT {
			// Root of this rank's chain (or pre-job history): charge the
			// remaining interval to the virtual source at job start.
			steps = append(steps, step{at: cur, from: start.VT})
			break
		}
		hop := evs[bind].Rank != ev.Rank || copierThread(evs[bind].Kind) != copierThread(ev.Kind)
		steps = append(steps, step{at: cur, from: evs[bind].VT, crossHop: hop})
		cur = bind
	}

	rep := &Report{
		JobID:      end.Name,
		Start:      start.VT,
		End:        end.VT,
		Makespan:   end.VT - start.VT,
		ByCategory: make(map[Category]time.Duration),
		ByRank:     make(map[int]time.Duration),
		ByPhase:    make(map[string]time.Duration),
		Dropped:    dropped,
		Unreliable: dropped > 0,
		Steps:      len(steps),
	}

	// Steps were collected sink-to-source; merge forward into segments and
	// accumulate the attribution tables. Zero-length steps still merge into
	// a neighboring segment's Events count but add no time.
	for i := len(steps) - 1; i >= 0; i-- {
		st := steps[i]
		ev := evs[st.at]
		cat := categorize(ev, inRec[st.at])
		if st.crossHop {
			rep.CrossEdges++
		}
		d := ev.VT - st.from
		rep.ByCategory[cat] += d
		rep.ByRank[ev.Rank] += d
		rep.ByPhase[phaseOf[st.at]] += d
		n := len(rep.Segments)
		if n > 0 {
			last := &rep.Segments[n-1]
			if last.Rank == ev.Rank && last.Category == cat && last.Phase == phaseOf[st.at] {
				last.To = ev.VT
				last.Events++
				continue
			}
		}
		rep.Segments = append(rep.Segments, Segment{
			Rank: ev.Rank, Category: cat, Phase: phaseOf[st.at],
			From: st.from, To: ev.VT, Events: 1,
		})
	}
	return rep, nil
}

// categorize attributes the elementary interval ending at ev. The closing
// event names what the rank was doing (or waiting for) during the interval;
// recOpen tells whether the rank's recovery span was open just before it.
func categorize(ev trace.Event, recOpen bool) Category {
	switch ev.Kind {
	case trace.KindJobBegin:
		return CatStartup
	case trace.KindRecoveryStage:
		switch ev.Name {
		case "load":
			return CatRecoveryLoad
		case "skip":
			return CatRecoverySkip
		case "reprocess":
			return CatRecoveryReprocess
		}
		return CatRecoveryInit
	case trace.KindCkptStall:
		if ev.Name == "drain" {
			return CatCkptDrain
		}
		return CatCkptWrite
	case trace.KindCkptCommit:
		return CatCkptWrite
	case trace.KindCopierBegin, trace.KindCopierEnd, trace.KindCopierDrain:
		return CatCopierStall
	case trace.KindCkptLoad, trace.KindCkptCorrupt:
		return CatRecoveryLoad
	case trace.KindSendBegin, trace.KindSendEnd, trace.KindRecvBegin, trace.KindRecvEnd,
		trace.KindCollBegin, trace.KindCollEnd,
		trace.KindShrinkBegin, trace.KindShrinkEnd, trace.KindAgreeBegin, trace.KindAgreeEnd:
		if recOpen {
			return CatRecoveryInit
		}
		return CatShuffleWait
	case trace.KindRevoke:
		if recOpen {
			return CatRecoveryInit
		}
		return CatFailureStall
	case trace.KindFailureInject, trace.KindFailureKill, trace.KindFailureDetect,
		trace.KindSlowRank, trace.KindRecoveryBegin:
		return CatFailureStall
	case trace.KindRecoveryEnd:
		return CatRecoveryInit
	case trace.KindShadowMirror, trace.KindShadowSync, trace.KindFailover:
		return CatShadowSync
	case trace.KindLoadBalance, trace.KindLBFit:
		return CatLBRefit
	case trace.KindTaskCommit, trace.KindPhaseBegin, trace.KindPhaseEnd, trace.KindJobEnd:
		return CatCompute
	}
	return CatOther
}
