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
// deterministic: communicators by id, destinations by comm rank, waiters in
// posting order.
func (w *World) EachRecvWaiter(fn func(introspect.RecvWaiter)) {
	for _, st := range w.comms {
		for dest, box := range st.boxes {
			destWorld := st.group[dest]
			box.eachLiveWaiter(func(rw *recvWait) {
				src := AnySource
				if rw.src != AnySource {
					src = st.group[rw.src]
				}
				fn(introspect.RecvWaiter{
					Rank:     destWorld,
					Src:      src,
					Tag:      rw.tag,
					Comm:     st.id,
					PostedVT: rw.postedVT,
				})
			})
		}
	}
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
