package mpi

import (
	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/vtime"
)

// Read-only accessors for the introspection plane. *World implements
// introspect.WorldView; everything here is cold-path (called once per
// capture cadence) and must not mutate any matching state.

// RankAlive reports whether the world rank has not failed.
func (w *World) RankAlive(worldRank int) bool { return w.ranks[worldRank].alive }

// RankProc returns the world rank's simulated process.
func (w *World) RankProc(worldRank int) *vtime.Proc { return w.ranks[worldRank].proc }

// RankWait reports what the world rank is parked in, read from the
// communicators' own state: the live receive parked in its mailbox, or the
// meeting it is inside (a collective, Shrink or Agree) with, while that
// meeting is still gathering, the live members not inside it. A parked
// process is in one of the two on one communicator, so the first found is
// the one.
func (w *World) RankWait(worldRank int) (introspect.Wait, bool) {
	for _, st := range w.comms {
		cr := st.commRankOf(worldRank)
		if cr < 0 {
			continue
		}
		if rw := st.boxes[cr].parked(); rw != nil {
			return introspect.Wait{Comm: st.id, Seq: introspect.NoValue,
				Src: st.group[rw.src], Tag: rw.tag, Since: rw.postedVT}, true
		}
		for _, m := range st.meets {
			for _, mw := range m.waits {
				if mw.c.rank == cr && !mw.left {
					return st.describe(m, mw), true
				}
			}
		}
	}
	return introspect.Wait{}, false
}

// describe is entrant mw of meeting m as the introspection plane reads it.
func (st *commState) describe(m *meet, mw *meetWait) introspect.Wait {
	wt := introspect.Wait{Op: mw.op, Comm: st.id, Seq: introspect.NoValue,
		Src: introspect.NoValue, Tag: introspect.NoValue, Since: mw.entry}
	if m.kind == meetExchange || m.kind == meetTree {
		wt.Seq = st.opSeq[mw.c.rank] - 1 // consumed on entry
	}
	if m.done {
		return wt
	}
	inside := make([]bool, len(st.group))
	for _, o := range m.waits {
		inside[o.c.rank] = true
	}
	wt.Missing = make([]int, 0, len(st.group)-len(m.waits))
	for r, wr := range st.group {
		if !inside[r] && st.w.ranks[wr].alive {
			wt.Missing = append(wt.Missing, wr)
		}
	}
	return wt
}

// PeakMailboxDepth returns the most unmatched messages any one mailbox of
// the world has held at once, over every communicator since Launch. It is
// the number the mailbox's design rests on (short lists, scanned): DESIGN.md
// "Mailbox matching semantics" records it per workload and internal/bench's
// TestThroughputGate bounds it.
func (w *World) PeakMailboxDepth() int {
	peak := 0
	for _, st := range w.comms {
		for _, box := range st.boxes {
			peak = max(peak, box.peak)
		}
	}
	return peak
}
