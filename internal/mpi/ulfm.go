package mpi

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
	st.interrupt(ErrRevoked, nil)
	return nil
}

// Revoked reports whether the communicator has been revoked.
func (c *Comm) Revoked() bool { return c.st.revoked }

// Shrink creates a new communicator containing the surviving processes of a
// (typically revoked) communicator. It blocks until every surviving member
// has entered, reaches agreement on the failed set, and returns the new
// communicator with ranks renumbered in ascending world-rank order
// (MPI_Comm_shrink). The caller's handle on the old communicator remains
// valid only for Shrink/Agree.
//
// A member dying while the shrink is still gathering participants fails the
// whole operation with ProcFailedError on every entrant: the failed set the
// survivors were about to agree on is stale, so the caller must re-revoke
// and re-enter Shrink with the new failure already part of the group view
// rather than proceed on a half-agreed membership.
func (c *Comm) Shrink() (*Comm, error) {
	c.r.obs.MPI.Shrinks.Inc()
	c.r.obs.Rec.ShrinkBegin(len(c.st.group))
	w := &meetWait{}
	m := c.meetIn(meetShrink, w)
	if w.err != nil {
		c.r.obs.Rec.ShrinkEnd(0)
		return nil, w.err
	}
	c.r.obs.Rec.AgreeBegin(0)
	c.agreementSleep()
	c.r.obs.Rec.AgreeEnd(0)
	c.r.obs.Rec.ShrinkEnd(len(m.newSt.group))
	return &Comm{st: m.newSt, rank: m.newSt.commRankOf(c.r.world), r: c.r}, nil
}

// Agree performs fault-tolerant agreement over the surviving ranks: it
// returns the bitwise AND of the flag arguments of all participants
// (MPI_Comm_agree). It works on revoked communicators and completes even if
// processes fail during the operation: over whoever is left, an entrant that
// died inside counted but never woken.
func (c *Comm) Agree(flag int) (int, error) {
	c.r.obs.MPI.Agrees.Inc()
	c.r.obs.Rec.AgreeBegin(flag)
	m := c.meetIn(meetAgree, &meetWait{flag: flag})
	c.agreementSleep()
	c.r.obs.Rec.AgreeEnd(m.flags)
	return m.flags, nil
}
