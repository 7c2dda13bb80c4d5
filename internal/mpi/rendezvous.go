package mpi

import (
	"math"
	"slices"
	"time"

	"ftmrmpi/internal/vtime"
)

// A rendezvous is how every collective synchronizes — none simulates a
// message: a rank enters with its contribution and parks until every live
// member of the communicator is inside; a function of the contributions
// (tryFinish, one policy per kind) then gives each rank its result and its
// release instant. At most one meeting of a kind is gathering on a
// communicator, because no rank can enter the next before every rank has
// entered this one.

type meetKind uint8

const (
	meetExchange meetKind = iota // AlltoallvSparse and its dense adapter Alltoallv
	meetTree                     // Barrier and the gathering calls (Allgather, AllgatherFold, AllreduceInt64)
	meetShrink
	meetAgree
)

// meet is one rendezvous on a communicator. commState.meets lists, oldest
// first, the ones an interrupt can still reach: those gathering, and an armed
// exchange or tree until its last rank has left.
type meet struct {
	kind   meetKind
	waits  []*meetWait // in entry order
	inside int         // entrants that have neither left nor died
	done   bool        // finished or aborted: the kind's next entrant opens a fresh meeting
	newSt  *commState  // Shrink's result
	flags  int         // Agree's result
	folded any         // a gathering call's result: its fold of the values, shared by every rank
	vals   []any       // an exchange's values, by comm rank, shared by every rank
}

// meetWait is one rank's stake in a meet.
type meetWait struct {
	c     *Comm
	op    string // what the introspection plane calls the meeting
	entry time.Duration
	val   any                 // a gathering call's or an exchange's value
	size  int                 // the bytes a gathering call's val is priced at
	fold  func(all []any) any // a gathering call's fold of the values, by comm rank; nil for a Barrier
	send  []Block             // an exchange's routes, by ascending peer, each priced at its Size
	recv  []Block             // an exchange's routes received, by ascending source
	flag  int                 // Agree's contribution
	at    time.Duration       // release instant; unreleased until the meeting finishes
	timer *vtime.Timer        // the wake-up an exchange or a tree armed for at
	err   error
	left  bool
}

const unreleased = time.Duration(math.MaxInt64)

// meetIn enters the caller into the gathering meeting of the kind (opening
// one if there is none), parks it until it is released or interrupted
// (w.err), and leaves.
func (c *Comm) meetIn(kind meetKind, w *meetWait) *meet {
	st, sim := c.st, c.st.w.Sim
	i := slices.IndexFunc(st.meets, func(m *meet) bool { return m.kind == kind && !m.done })
	if i < 0 {
		i = len(st.meets)
		st.meets = append(st.meets, &meet{kind: kind})
	}
	m := st.meets[i]
	w.c, w.entry, w.at = c, sim.Now(), unreleased
	m.waits = append(m.waits, w)
	m.inside++
	st.tryFinish(m, w)
	for w.err == nil && sim.Now() < w.at {
		c.r.proc.Park()
	}
	w.left = true
	if m.inside--; m.inside == 0 {
		st.forget(m)
	}
	return m
}

// forget takes m off the list: no interrupt can reach a rank in it any more.
func (st *commState) forget(m *meet) {
	st.meets = slices.DeleteFunc(st.meets, func(o *meet) bool { return o == m })
}

// tryFinish finishes m if every live member of the group is inside. self is
// the running entrant whose arrival may have completed it, nil when a death
// did. An exchange or a tree arms each rank's own completion instant, one
// wake-up per rank in comm-rank order, and stays interruptible; Shrink and
// Agree release every entrant now, waking the parked ones in entry order.
func (st *commState) tryFinish(m *meet, self *meetWait) {
	if m.inside != len(st.group)-st.deadCount {
		return
	}
	m.done = true
	switch m.kind {
	case meetExchange, meetTree:
		// Every member is inside: a dead one turns entrants away (entryErr)
		// and a death aborts the meeting (interrupt).
		waits := make([]*meetWait, len(m.waits)) // by comm rank
		for _, w := range m.waits {
			waits[w.c.rank] = w
		}
		if m.kind == meetExchange {
			st.arm(m, waits)
		} else {
			st.armTree(m, waits)
		}
		now := st.w.Sim.Now()
		for _, w := range waits {
			if w != self || w.at > now {
				w.timer = st.w.Sim.WakeAfter(w.c.r.proc, w.at-now)
			}
		}
		return
	case meetShrink:
		var survivors []int
		for _, wr := range st.group {
			if st.w.ranks[wr].alive {
				survivors = append(survivors, wr)
			}
		}
		m.newSt = st.w.newCommState(survivors)
	case meetAgree:
		m.flags = ^0
		for _, w := range m.waits { // a rank that died inside had its say
			m.flags &= w.flag
		}
	}
	for _, w := range m.waits {
		w.at = st.w.Sim.Now()
		if w != self && !w.c.r.proc.Dead() { // self is running: no wake
			st.w.Sim.Wake(w.c.r.proc)
		}
	}
	st.forget(m)
}

// interrupt serves a member's death (dead is its rank, err the
// ProcFailedError naming it) and Revoke (dead is nil), oldest meeting first.
// Either aborts every exchange and tree with ranks inside, armed or not; a
// death also aborts a gathering Shrink — the failed set its entrants were
// about to agree on is stale — and lets an Agree finish over whoever is left.
func (st *commState) interrupt(err error, dead *Rank) {
	for _, m := range slices.Clone(st.meets) {
		switch {
		case m.kind == meetAgree && dead != nil:
			if slices.ContainsFunc(m.waits, func(w *meetWait) bool { return w.c.r == dead }) {
				m.inside--
			}
			st.tryFinish(m, nil)
		case m.kind == meetExchange || m.kind == meetTree || dead != nil:
			for _, w := range m.waits {
				if !w.left {
					w.timer.Stop()
					w.err = err
					st.w.Sim.Wake(w.c.r.proc)
				}
			}
			m.done = true
			st.forget(m)
		}
	}
}

// agreementSleep charges the caller an agreement over the group: a few
// log₂(P) latency rounds.
func (c *Comm) agreementSleep() {
	rounds := 2 * int(math.Ceil(math.Log2(float64(len(c.st.group))+1)))
	c.r.proc.Sleep(time.Duration(rounds) * c.st.w.Clus.Cfg.NICLatency)
}
