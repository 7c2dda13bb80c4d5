package trace

import (
	"fmt"
	"sort"
)

// Flow validation — the engine behind `ftmr-trace flows`. Every message the
// simulated MPI layer delivers carries a world-unique id, stamped on the
// send.end event and repeated on the recv.end that consumed it. Checking
// the pairing catches tracer regressions (a recv site that forgot to
// propagate the id) and genuinely broken traces (truncated files, merged
// runs). All times here are virtual simulation time.

// FlowViolation is one broken send→recv invariant.
type FlowViolation struct {
	ID     uint64 // message id (0 only for events that should carry one)
	Reason string // human-readable description
}

// String renders the violation the way the CLI reports it.
func (v FlowViolation) String() string {
	return fmt.Sprintf("flow %d: %s", v.ID, v.Reason)
}

// FlowReport is the result of checking send→recv pairing over one trace.
type FlowReport struct {
	Sends   int // send.end events carrying a flow id
	Recvs   int // recv.end events carrying a flow id
	Matched int // ids seen on exactly one send and one recv

	// UnmatchedSends counts ids sent but never received. These are
	// warnings, not violations: the simulator's eager sends to ranks that
	// die before receiving are legal and expected under failure injection.
	UnmatchedSends int

	// DanglingRecvs counts ids received but never sent — always a
	// violation (a message cannot arrive without leaving).
	DanglingRecvs int

	// ZeroRecvs counts recv.end events with no flow id. Aborted or failed
	// receives legitimately carry none, so this is informational.
	ZeroRecvs int

	// Violations lists every broken invariant: dangling recvs, duplicate
	// ids on a side, byte-count mismatches, and recvs that complete before
	// their send (virtual-time inversion).
	Violations []FlowViolation
}

// OK reports whether the trace satisfies all flow invariants.
func (fr *FlowReport) OK() bool { return len(fr.Violations) == 0 }

// CheckFlows validates send→recv pairing over an event stream (any order).
func CheckFlows(events []Event) *FlowReport {
	fr := &FlowReport{}

	type side struct {
		ev    *Event
		count int
	}
	sends := make(map[uint64]*side)
	recvs := make(map[uint64]*side)
	note := func(m map[uint64]*side, ev *Event) {
		s, ok := m[ev.Flow]
		if !ok {
			s = &side{ev: ev}
			m[ev.Flow] = s
		}
		s.count++
	}

	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case KindSendEnd:
			if ev.Flow == 0 {
				fr.Violations = append(fr.Violations, FlowViolation{
					Reason: fmt.Sprintf("send.end without flow id (rank %d seq %d)", ev.Rank, ev.Seq),
				})
				continue
			}
			fr.Sends++
			note(sends, ev)
		case KindRecvEnd:
			if ev.Flow == 0 {
				fr.ZeroRecvs++
				continue
			}
			fr.Recvs++
			note(recvs, ev)
		}
	}

	ids := make([]uint64, 0, len(sends)+len(recvs))
	for id := range sends {
		ids = append(ids, id)
	}
	for id := range recvs {
		if _, ok := sends[id]; !ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	for _, id := range ids {
		s, r := sends[id], recvs[id]
		if s != nil && s.count > 1 {
			fr.Violations = append(fr.Violations, FlowViolation{ID: id,
				Reason: fmt.Sprintf("sent %d times (id must be unique)", s.count)})
		}
		if r != nil && r.count > 1 {
			fr.Violations = append(fr.Violations, FlowViolation{ID: id,
				Reason: fmt.Sprintf("received %d times (a message is delivered once)", r.count)})
		}
		switch {
		case s == nil:
			fr.DanglingRecvs++
			fr.Violations = append(fr.Violations, FlowViolation{ID: id,
				Reason: fmt.Sprintf("received by rank %d but never sent", r.ev.Rank)})
		case r == nil:
			fr.UnmatchedSends++
		default:
			fr.Matched++
			if s.ev.C != r.ev.C {
				fr.Violations = append(fr.Violations, FlowViolation{ID: id,
					Reason: fmt.Sprintf("byte count mismatch: sent %d, received %d", s.ev.C, r.ev.C)})
			}
			if r.ev.VT < s.ev.VT {
				fr.Violations = append(fr.Violations, FlowViolation{ID: id,
					Reason: fmt.Sprintf("recv at vt %v before send at vt %v", r.ev.VT, s.ev.VT)})
			}
		}
	}
	return fr
}
