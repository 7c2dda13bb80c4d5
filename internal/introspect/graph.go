package introspect

import (
	"fmt"
	"slices"
)

// Cycle detection over the wait-for graph that capture draws. Edge
// soundness is the whole game — an unsound edge turns a transient state into
// a reported deadlock — so there is one rule, and it reads a fact the MPI
// layer holds rather than one the plane infers: a rank inside a gathering
// meeting (a collective, Shrink or Agree) waits for every live member of the
// communicator that is not inside it, since the meeting cannot finish until
// that member enters. An armed meeting — every member inside, each waiting
// out its own completion instant — waits for nobody, which keeps a
// collective's staggered release (one rank already in the next collective
// while another is still in this one) from drawing false edges. A receive
// draws none: the one blocking receive a job makes is an AnySource one, which
// any of several senders could satisfy, and OR-semantics would fabricate
// cycles.

// findCycle runs deterministic cycle detection over the wait-for graph of n
// ranks, stated as wait sets with each rank in at most one From (as capture
// builds them), and returns one cycle as world ranks in wait order (each
// member waits for the next, the last for the first), or nil. It walks rank
// -> set -> rank in O(n + sum of set sizes), roots and each To ascending,
// and returns the cycle a DFS over the (From, To)-sorted expanded edges
// would: when a set is reached again, its To entries before the cursor are
// black (all of them, once the set is done) and the one at it is on the stack.
func findCycle(n int, waits []WaitSet) []int {
	if len(waits) == 0 {
		return nil
	}
	in := make([]int, n) // rank u waits through waits[in[u]-1]; 0 for none
	for s, ws := range waits {
		for _, u := range ws.From {
			in[u] = s + 1
		}
	}
	next := make([]int, len(waits)) // the cursor into each set's To
	const (
		white = iota
		gray
		black
	)
	color := make([]uint8, n)
	var stack []int
	var dfs func(u int) []int
	dfs = func(u int) []int {
		color[u] = gray
		stack = append(stack, u)
		if s := in[u] - 1; s >= 0 {
			for to := waits[s].To; next[s] < len(to); next[s]++ {
				switch v := to[next[s]]; color[v] {
				case gray:
					return slices.Clone(stack[slices.Index(stack, v):])
				case white:
					if cycle := dfs(v); cycle != nil {
						return cycle
					}
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[u] = black
		return nil
	}
	for u := range n {
		if color[u] == white {
			if cycle := dfs(u); cycle != nil {
				return cycle
			}
		}
	}
	return nil
}

// waitReason renders a rank state as a one-line human wait reason (used in
// stall-report members and the inspect renderer).
func waitReason(rs *RankState) string {
	switch rs.State {
	case StateRecv:
		src := "any"
		if rs.Src >= 0 {
			src = fmt.Sprintf("w%d", rs.Src)
		}
		return fmt.Sprintf("recv src=%s tag=%d comm=%d", src, rs.Tag, rs.Comm)
	case StateColl:
		if rs.Seq == NoValue { // Shrink, Agree
			return fmt.Sprintf("collective %s comm=%d", rs.Op, rs.Comm)
		}
		return fmt.Sprintf("collective %s comm=%d seq=%d", rs.Op, rs.Comm, rs.Seq)
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
