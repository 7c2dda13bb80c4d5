package trace

import "time"

// Summarize derives the aggregate accounting the runner keeps by hand
// (RankMetrics phase/recovery totals, checkpoint volume) from the raw event
// stream, so the two bookkeeping paths can be cross-checked against each
// other: the hand-maintained counters say *how much*, the events say *when*,
// and they must agree.

// RankSummary is the per-rank aggregate derived from events. All durations
// are virtual simulation time.
type RankSummary struct {
	Rank int // world rank (GlobalRank for the world track)

	// Phase sums matched phase.begin/phase.end pairs per phase name. A
	// begin with no end (the rank died mid-phase) contributes nothing —
	// mirroring the runner, which only accumulates on phase exit.
	Phase map[string]time.Duration

	// Recoveries counts recovery episodes; RecoveryTime sums their spans.
	Recoveries   int
	RecoveryTime time.Duration // summed recovery span time (virtual)

	// Point-to-point and collective activity.
	Sends, Recvs         int64         // completed send.end / recv.end events
	SendBytes, RecvBytes int64         // payload bytes over those events
	CollTime             time.Duration // top-level collective spans only

	// Checkpoint activity.
	CkptBytes, CkptFrames           int64         // committed by the writer
	CopierBytes                     int64         // drained to the PFS by the copier
	CopierTime                      time.Duration // matched copier.begin/end spans
	RecoveredBytes, RecoveredFrames int64         // replayed during recovery

	TaskCommits int64 // task.commit events (map tasks + reduce partitions)
	LBFits      int64 // load-balancer model publications (lb.fit events)

	// Stage sums recovery.stage attributions per Figure 3 bucket name
	// ("init", "load", "skip", "reprocess"); nil when the rank recorded no
	// recovery.stage event.
	Stage map[string]time.Duration

	// CkptStall sums ckpt.stall charges per kind ("write", "drain").
	CkptStall map[string]time.Duration

	// DroppedEvents is the ring-overwrite count reported by a trace.drops
	// marker (serialized traces only; live tracers report via Dropped).
	// Non-zero means this rank's timeline has a hole: any DAG or aggregate
	// built from it is unreliable.
	DroppedEvents int64
}

// Summary is the full derivation over an event stream.
type Summary struct {
	Ranks map[int]*RankSummary // keyed by world rank, GlobalRank included
}

// Rank returns (creating if needed) a rank's summary.
func (s *Summary) Rank(rank int) *RankSummary {
	rs, ok := s.Ranks[rank]
	if !ok {
		rs = &RankSummary{Rank: rank, Phase: make(map[string]time.Duration)}
		s.Ranks[rank] = rs
	}
	return rs
}

// Dropped returns the total ring-overwrite count across ranks; non-zero
// means the event stream has holes and every aggregate here is a lower
// bound.
func (s *Summary) Dropped() int64 {
	var n int64
	for _, rs := range s.Ranks {
		n += rs.DroppedEvents
	}
	return n
}

// Summarize folds an event stream (as returned by Tracer.Events, i.e. in
// causal order) into per-rank aggregates.
func Summarize(events []Event) *Summary {
	s := &Summary{Ranks: make(map[int]*RankSummary)}

	type openState struct {
		phaseStart    map[string]time.Duration
		phaseOpen     map[string]bool
		recoveryStart time.Duration
		recoveryOpen  bool
		collDepth     int
		collStart     time.Duration
		copierStart   time.Duration
		copierOpen    bool
	}
	open := make(map[int]*openState)
	stateOf := func(rank int) *openState {
		st, ok := open[rank]
		if !ok {
			st = &openState{
				phaseStart: make(map[string]time.Duration),
				phaseOpen:  make(map[string]bool),
			}
			open[rank] = st
		}
		return st
	}

	for _, ev := range events {
		rs := s.Rank(ev.Rank)
		st := stateOf(ev.Rank)
		switch ev.Kind {
		case KindPhaseBegin:
			st.phaseStart[ev.Name] = ev.VT
			st.phaseOpen[ev.Name] = true
		case KindPhaseEnd:
			if st.phaseOpen[ev.Name] {
				rs.Phase[ev.Name] += ev.VT - st.phaseStart[ev.Name]
				st.phaseOpen[ev.Name] = false
			}
		case KindRecoveryBegin:
			st.recoveryStart = ev.VT
			st.recoveryOpen = true
		case KindRecoveryEnd:
			if st.recoveryOpen {
				rs.Recoveries++
				rs.RecoveryTime += ev.VT - st.recoveryStart
				st.recoveryOpen = false
			}
		case KindSendEnd:
			rs.Sends++
			rs.SendBytes += ev.C
		case KindRecvEnd:
			rs.Recvs++
			rs.RecvBytes += ev.C
		case KindCollBegin:
			if st.collDepth == 0 {
				st.collStart = ev.VT
			}
			st.collDepth++
		case KindCollEnd:
			if st.collDepth > 0 {
				st.collDepth--
				if st.collDepth == 0 {
					rs.CollTime += ev.VT - st.collStart
				}
			}
		case KindCkptCommit:
			rs.CkptBytes += ev.A
			rs.CkptFrames += ev.B
		case KindCopierDrain:
			rs.CopierBytes += ev.A
		case KindCopierBegin:
			// The copier drains one stream at a time, so spans never nest.
			st.copierStart = ev.VT
			st.copierOpen = true
		case KindCopierEnd:
			if st.copierOpen {
				rs.CopierTime += ev.VT - st.copierStart
				st.copierOpen = false
			}
		case KindCkptLoad:
			rs.RecoveredBytes += ev.A
			rs.RecoveredFrames += ev.B
		case KindTaskCommit:
			rs.TaskCommits++
		case KindLBFit:
			rs.LBFits++
		case KindRecoveryStage:
			if rs.Stage == nil {
				rs.Stage = make(map[string]time.Duration)
			}
			rs.Stage[ev.Name] += time.Duration(ev.A)
		case KindCkptStall:
			if rs.CkptStall == nil {
				rs.CkptStall = make(map[string]time.Duration)
			}
			rs.CkptStall[ev.Name] += time.Duration(ev.A)
		case KindDrops:
			rs.DroppedEvents += ev.A
		}
	}
	return s
}
