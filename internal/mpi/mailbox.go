package mpi

import (
	"slices"
	"time"

	"ftmrmpi/internal/vtime"
)

// A mailbox is what one (communicator, rank) pair has not matched yet: the
// messages that arrived before a receive asked for them, in arrival order,
// and the owner's one parked receive. A receive takes the first buffered
// message that its (src, tag) accepts; a delivery completes the parked receive
// if that accepts it and is buffered otherwise.
//
// Both are scans of a short list by design. Every collective is a
// rendezvous that sends no message, so a failure-free mailbox holds only the
// point-to-point traffic the layers above send — the status gossip ring, one
// sender per mailbox (DESIGN.md "Mailbox matching semantics" has the measured
// depths, World.PeakMailboxDepth reports them, internal/bench's
// TestThroughputGate holds them) — and a receive can only be posted by the
// mailbox's owner, which posts nothing more while it is parked: one slot, not
// a list.

// recvWait is a parked receive. Fields are written by the matching side
// (deliver/onFailure/Revoke, through commState.complete) and read by the
// parked process after it wakes.
type recvWait struct {
	p   *vtime.Proc
	src int // comm rank
	tag int
	msg *Message
	err error
	// done marks the wait as finished: msg or err is set, or it was
	// withdrawn. A finished wait has left its mailbox.
	done bool
	// postedVT is the virtual time the wait was posted, stamped by post. The
	// introspection plane (World.RankWait) reports it as the blocked-since
	// time.
	postedVT time.Duration
}

// accepts reports whether a receive posted for (src, tag) matches m. src may
// be AnySource.
func accepts(src, tag int, m *Message) bool {
	return (src == AnySource || src == m.Src) && tag == m.Tag
}

// mailbox holds the unmatched arrived messages and the parked receive of one
// (communicator, destination-rank) pair.
type mailbox struct {
	// msgs is the unmatched arrivals, oldest first.
	msgs []*Message
	// wait is the owner's parked receive, nil when it has none.
	wait *recvWait
	// peak is the most messages msgs has held at once.
	peak int
}

// pushMsg appends a newly delivered, unmatched message.
func (box *mailbox) pushMsg(m *Message) {
	box.msgs = append(box.msgs, m)
	box.peak = max(box.peak, len(box.msgs))
}

// matchBuffered removes and returns the first buffered message in arrival
// order that a receive for (src, tag) accepts, or nil.
func (box *mailbox) matchBuffered(src, tag int) *Message {
	for i, m := range box.msgs {
		if accepts(src, tag, m) {
			box.msgs = slices.Delete(box.msgs, i, i+1)
			return m
		}
	}
	return nil
}

// post parks rw as the owner's receive. The owner runs nothing while parked,
// so a second live receive is a bug in this package, never an input.
func (box *mailbox) post(rw *recvWait) {
	if box.wait != nil {
		panic("mpi: a second receive was posted on a mailbox whose owner is parked in one")
	}
	rw.postedVT = rw.p.Now()
	box.wait = rw
}

// parked returns the owner's receive while something can still complete it:
// nil when there is none, or when the owner died in it (a killed process
// unwinds through recv without withdrawing, and nothing may be handed to it).
func (box *mailbox) parked() *recvWait {
	if rw := box.wait; rw != nil && !rw.p.Dead() {
		return rw
	}
	return nil
}

// retire takes the parked receive rw out of the mailbox: completed with a
// message or an error (commState.complete), or withdrawn by abort unwinding.
func (box *mailbox) retire(rw *recvWait) {
	rw.done = true
	box.wait = nil
}
