package introspect

import (
	"fmt"
	"sort"
)

// Wait-for graph derivation. Edge soundness is the whole game here — an
// unsound edge turns a transient state into a reported deadlock — so only
// two provable rules emit edges:
//
//   - A rank blocked in a receive from a *specific* source waits for that
//     source: it cannot proceed until the source sends. AnySource receives
//     are reported in the snapshot but are edge-free; any of several
//     senders could satisfy them, and OR-semantics would fabricate cycles.
//   - A rank inside collective (comm, seq) waits for every alive group
//     member whose next collective sequence number on that communicator is
//     still <= seq: such a member has provably not entered the collective,
//     and the collective cannot complete until it does. Members that are in
//     it (seq consumed) or past it are not stragglers, which keeps the
//     staggered release of a collective (one rank already in the next
//     collective while another is still waiting out its completion instant
//     in this one) from producing false edges.
//
// Even sound edges can form a one-shot cycle while a satisfying message is
// in flight (the sender already paid its wire time; the waiter just has not
// woken yet), so the plane only reports a live-capture cycle when the same
// membership persists across two consecutive snapshots; the post-run Final
// capture reports immediately because a drained event heap means nothing is
// in flight.

// deriveEdges builds the wait-for graph from a captured rank-state set.
// Edges are deduplicated on (from, to), keeping the first rule that emitted
// them; ordering is deterministic (ranks ascending, then group order).
func deriveEdges(ranks []RankState, v WorldView) []Edge {
	var edges []Edge
	seen := make(map[[2]int]bool)
	add := func(from, to int, why string) {
		k := [2]int{from, to}
		if from == to || seen[k] {
			return
		}
		seen[k] = true
		edges = append(edges, Edge{From: from, To: to, Why: why})
	}

	for i := range ranks {
		rs := &ranks[i]
		if rs.State == StateDead {
			continue
		}
		if (rs.State == StateRecv || rs.State == StateColl) && rs.Src >= 0 {
			add(rs.Rank, rs.Src, WhyRecv)
		}
	}

	var comms map[int]CommView
	for i := range ranks {
		rs := &ranks[i]
		if rs.State != StateColl || rs.Comm == NoValue || rs.Seq == NoValue {
			continue
		}
		if comms == nil {
			comms = make(map[int]CommView)
			v.EachComm(func(cv CommView) { comms[cv.ID] = cv })
		}
		cv, ok := comms[rs.Comm]
		if !ok {
			continue
		}
		for gi, member := range cv.Group {
			if member == rs.Rank || !v.RankAlive(member) {
				continue
			}
			if gi < len(cv.OpSeq) && cv.OpSeq[gi] <= rs.Seq {
				add(rs.Rank, member, WhyColl)
			}
		}
	}
	return edges
}

// findCycle runs deterministic cycle detection over the wait-for graph and
// returns one cycle as world ranks in wait order (each member waits for the
// next, the last for the first), or nil. Adjacency lists are sorted and
// roots visited ascending, so the same graph always yields the same cycle.
func findCycle(ranks []RankState, edges []Edge) []int {
	if len(edges) == 0 {
		return nil
	}
	adj := make(map[int][]int)
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e.To)
	}
	roots := make([]int, 0, len(adj))
	for from, tos := range adj {
		sort.Ints(tos)
		roots = append(roots, from)
	}
	sort.Ints(roots)

	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[int]int)
	var stack []int
	var cycle []int
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = gray
		stack = append(stack, u)
		for _, w := range adj[u] {
			if color[w] == gray {
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i] == w {
						cycle = append([]int(nil), stack[i:]...)
						return true
					}
				}
			}
			if color[w] == white && dfs(w) {
				return true
			}
		}
		stack = stack[:len(stack)-1]
		color[u] = black
		return false
	}
	for _, root := range roots {
		if color[root] == white && dfs(root) {
			return cycle
		}
	}
	return nil
}

// waitReason renders a rank state as a one-line human wait reason (used in
// stall-report members and the inspect renderer).
func waitReason(rs *RankState) string {
	recv := func() string {
		src := "any"
		if rs.Src >= 0 {
			src = fmt.Sprintf("w%d", rs.Src)
		}
		return fmt.Sprintf("recv src=%s tag=%d comm=%d", src, rs.Tag, rs.Comm)
	}
	switch rs.State {
	case StateRecv:
		return recv()
	case StateColl:
		s := fmt.Sprintf("collective %s comm=%d seq=%d", rs.Op, rs.Comm, rs.Seq)
		if rs.Src != NoValue {
			s += " (" + recv() + ")"
		}
		return s
	case StateDrain:
		return "checkpoint drain barrier"
	case StateTimer:
		return fmt.Sprintf("timer until vt=%.0fus", rs.PostedUS)
	case StateParked:
		return "parked (resource queue or outage window)"
	case StateDead:
		return "dead"
	default:
		return rs.State
	}
}
