package mpi

import (
	"math"
	"time"
)

// User-Level Failure Mitigation (ULFM) extensions, after Bland et al.'s
// proposal for MPI-4 and the Open MPI 1.7 ULFM branch the paper uses:
//
//   - Revoke marks the communicator unusable everywhere, interrupting every
//     ongoing and future operation on it (the detect/resume model's failure
//     notification, paper §4.2.1).
//   - Shrink reaches agreement on the failed group and builds a new, working
//     communicator containing only the survivors.
//   - Agree is a fault-tolerant agreement (bitwise AND) over the surviving
//     ranks.

// Revoke marks the communicator as revoked. The revocation propagates to
// every process: all pending operations on the communicator complete with
// ErrRevoked and all future operations (other than Shrink and Agree) fail
// with ErrRevoked. Unlike Abort, no process is terminated.
//
// Revoke is re-entrant: revoking an already-revoked communicator re-floods
// the revocation, waking anyone who blocked on the communicator since the
// first revoke. Recovery restarted after an overlapping failure relies on
// this — survivors parked in a failed recovery attempt's collectives must
// be interrupted again.
func (c *Comm) Revoke() error {
	st := c.st
	c.r.obs.MPI.Revokes.Inc()
	if st.revoked {
		c.r.obs.Rec.Revoke("re-initiate")
	} else {
		c.r.obs.Rec.Revoke("initiate")
		st.revoked = true
		// Model the revoke packet flood: the revoking rank pays one message
		// latency; everyone blocked on the comm is interrupted.
		c.r.proc.Sleep(st.w.Clus.Cfg.NICLatency)
	}
	for _, box := range st.boxes {
		if rw := box.parked(); rw != nil {
			st.complete(box, rw, nil, ErrRevoked)
		}
	}
	st.failExch(ErrRevoked)
	return nil
}

// Revoked reports whether the communicator has been revoked.
func (c *Comm) Revoked() bool { return c.st.revoked }

// shrinkOp tracks an in-progress Shrink: it completes when every surviving
// group member has entered.
type shrinkOp struct {
	arrived map[int]bool // comm ranks that called Shrink
	waiters []*shrinkWait
	done    bool
	newSt   *commState
}

type shrinkWait struct {
	c    *Comm
	done bool
	err  error
}

// Shrink creates a new communicator containing the surviving processes of a
// (typically revoked) communicator. It blocks until every surviving member
// has entered, reaches agreement on the failed set, and returns the new
// communicator with ranks renumbered in ascending world-rank order
// (MPI_Comm_shrink). The caller's handle on the old communicator remains
// valid only for Shrink/Agree.
//
// A member dying while the shrink is still gathering participants fails the
// whole operation with ProcFailedError on every waiter: the failed set the
// survivors were about to agree on is stale, so the caller must re-revoke
// and restart its recovery rather than proceed on a half-agreed membership.
func (c *Comm) Shrink() (*Comm, error) {
	st := c.st
	c.r.obs.MPI.Shrinks.Inc()
	c.r.obs.Rec.ShrinkBegin(len(st.group))
	if st.shrink == nil || st.shrink.done {
		st.shrink = &shrinkOp{arrived: make(map[int]bool)}
	}
	op := st.shrink
	op.arrived[c.rank] = true
	w := &shrinkWait{c: c}
	op.waiters = append(op.waiters, w)
	op.tryComplete(st)
	for !w.done {
		c.r.proc.Park()
	}
	if w.err != nil {
		c.r.obs.Rec.ShrinkEnd(0)
		return nil, w.err
	}
	// Agreement cost: a few log₂(P) latency rounds.
	c.r.obs.Rec.AgreeBegin(0)
	rounds := 2 * int(math.Ceil(math.Log2(float64(len(st.group))+1)))
	c.r.proc.Sleep(time.Duration(rounds) * st.w.Clus.Cfg.NICLatency)
	c.r.obs.Rec.AgreeEnd(0)
	newRank := op.newSt.commRankOf(c.r.world)
	c.r.obs.Rec.ShrinkEnd(len(op.newSt.group))
	return &Comm{st: op.newSt, rank: newRank, r: c.r}, nil
}

// tryComplete finishes the shrink when all survivors have arrived.
func (op *shrinkOp) tryComplete(st *commState) {
	if op.done {
		return
	}
	for i, wr := range st.group {
		if st.w.ranks[wr].alive && !op.arrived[i] {
			return
		}
	}
	var survivors []int
	for _, wr := range st.group {
		if st.w.ranks[wr].alive {
			survivors = append(survivors, wr)
		}
	}
	op.done = true
	op.newSt = st.w.newCommState(survivors)
	for _, w := range op.waiters {
		if w.c.r.alive {
			w.done = true
			st.w.Sim.Wake(w.c.r.proc)
		}
	}
	st.shrink = nil
}

// onFailure aborts an in-progress shrink when a member dies mid-operation:
// every live waiter is woken with ProcFailedError and the op is torn down,
// forcing the callers to re-revoke and re-enter Shrink with the new failure
// already part of the group view (overlapping-failure recovery restart).
func (op *shrinkOp) onFailure(st *commState, worldRank int) {
	if op.done {
		return
	}
	op.done = true
	for _, w := range op.waiters {
		if w.c.r.proc.Dead() {
			continue
		}
		w.err = &ProcFailedError{Ranks: []int{worldRank}}
		w.done = true
		st.w.Sim.Wake(w.c.r.proc)
	}
	st.shrink = nil
}

// agreeOp tracks an in-progress Agree.
type agreeOp struct {
	arrived map[int]bool
	flags   int
	sawFail bool
	waiters []*agreeWait
	done    bool
	result  int
}

type agreeWait struct {
	c      *Comm
	done   bool
	result int
}

// Agree performs fault-tolerant agreement over the surviving ranks: it
// returns the bitwise AND of the flag arguments of all participants
// (MPI_Comm_agree). It works on revoked communicators and completes even if
// processes fail during the operation.
func (c *Comm) Agree(flag int) (int, error) {
	st := c.st
	c.r.obs.MPI.Agrees.Inc()
	c.r.obs.Rec.AgreeBegin(flag)
	if st.agree == nil || st.agree.done {
		st.agree = &agreeOp{arrived: make(map[int]bool), flags: ^0}
	}
	op := st.agree
	op.arrived[c.rank] = true
	op.flags &= flag
	w := &agreeWait{c: c}
	op.waiters = append(op.waiters, w)
	op.tryComplete(st)
	for !w.done {
		c.r.proc.Park()
	}
	rounds := 2 * int(math.Ceil(math.Log2(float64(len(st.group))+1)))
	c.r.proc.Sleep(time.Duration(rounds) * st.w.Clus.Cfg.NICLatency)
	c.r.obs.Rec.AgreeEnd(w.result)
	return w.result, nil
}

func (op *agreeOp) tryComplete(st *commState) {
	if op.done {
		return
	}
	for i, wr := range st.group {
		if st.w.ranks[wr].alive && !op.arrived[i] {
			return
		}
	}
	op.done = true
	op.result = op.flags
	for _, w := range op.waiters {
		if !w.c.r.proc.Dead() {
			w.result = op.result
			w.done = true
			st.w.Sim.Wake(w.c.r.proc)
		}
	}
	st.agree = nil
}

func (op *agreeOp) onFailure(st *commState) {
	var keep []*agreeWait
	for _, w := range op.waiters {
		if !w.c.r.proc.Dead() {
			keep = append(keep, w)
		}
	}
	op.waiters = keep
	op.tryComplete(st)
}
