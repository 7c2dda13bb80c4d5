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

// EachRecvWaiter calls fn for every live parked receive across every
// communicator, with comm ranks translated to world ranks. Order is
// deterministic: communicators by id, destinations by comm rank (a mailbox
// holds at most one parked receive).
func (w *World) EachRecvWaiter(fn func(introspect.RecvWaiter)) {
	for _, st := range w.comms {
		for dest, box := range st.boxes {
			rw := box.parked()
			if rw == nil {
				continue
			}
			fn(introspect.RecvWaiter{
				Rank:     st.group[dest],
				Src:      st.worldSrc(rw.src),
				Tag:      rw.tag,
				Comm:     st.id,
				PostedVT: rw.postedVT,
			})
		}
	}
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

// EachComm calls fn for every communicator, ascending by id, with copies of
// the group membership and per-member collective progress (the straggler
// analysis inputs).
func (w *World) EachComm(fn func(introspect.CommView)) {
	for _, st := range w.comms {
		fn(introspect.CommView{
			ID:    st.id,
			Group: append([]int(nil), st.group...),
			OpSeq: append([]int(nil), st.opSeq...),
		})
	}
}
