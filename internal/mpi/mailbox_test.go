package mpi

import (
	"testing"

	"ftmrmpi/internal/vtime"
)

// A step is one thing that happens to a mailbox. Deliveries are numbered from
// 0 in the order a case makes them; that ordinal is how a receive names the
// message it must take and how a case names what is left buffered.
type step struct {
	op       byte // 'd' deliver, 'r' receive, 'w' withdraw the parked receive, 'k' the owner dies
	src, tag int
	// want is, for a receive, the delivery it must take — or parks: nothing
	// buffered is acceptable and the receive is posted; for a delivery, handed
	// (it completes the parked receive) or buffered.
	want int
}

const (
	parks    = -1
	buffered = -2
	handed   = -3
)

func deliver(src, tag, want int) step { return step{'d', src, tag, want} }
func receive(src, tag, want int) step { return step{'r', src, tag, want} }

// churn is a receive-as-you-go stream: n deliveries from src, each consumed
// before the next. Ordinals start at first.
func churn(src, n, first int) []step {
	var out []step
	for i := 0; i < n; i++ {
		out = append(out, deliver(src, i, buffered), receive(src, i, first+i))
	}
	return out
}

// TestMailboxMatching is the matching relation, on a bare mailbox driven
// through commState.deliver and the three calls recv makes (matchBuffered,
// post, retire): a receive takes the first acceptable message in arrival
// order; a delivery completes the parked receive exactly when that accepts
// it; a receive that was withdrawn, or whose owner died, takes nothing.
func TestMailboxMatching(t *testing.T) {
	cases := []struct {
		name   string
		steps  []step
		left   []int // deliveries still buffered at the end, oldest first
		parked bool  // a live receive is still parked at the end
		peak   int   // the mailbox's high-water mark
		panics bool  // the last step must panic
	}{
		{name: "arrival-order",
			steps: []step{deliver(1, 5, buffered), deliver(1, 5, buffered), deliver(2, 5, buffered),
				receive(1, 5, 0), receive(AnySource, 5, 1), receive(2, 5, 2)},
			peak: 3},
		{name: "first-acceptable-not-first-arrived",
			steps: []step{deliver(1, 5, buffered), deliver(2, 5, buffered), deliver(2, 6, buffered), deliver(1, 6, buffered),
				receive(2, 5, 1), receive(AnySource, 6, 2), receive(1, 6, 3), receive(2, 6, parks)},
			left: []int{0}, parked: true, peak: 4},
		{name: "unaccepted-delivery-is-buffered",
			steps: []step{receive(1, 5, parks),
				deliver(2, 5, buffered), deliver(1, 6, buffered), deliver(2, 6, buffered), deliver(1, 5, handed)},
			left: []int{0, 1, 2}, peak: 3},
		{name: "parked-wildcards-take-the-first-delivery",
			steps: []step{receive(AnySource, 9, parks), deliver(3, 9, handed), deliver(2, 9, buffered)},
			left:  []int{1}, peak: 1},
		{name: "withdrawn-receive-takes-nothing",
			steps: []step{receive(1, 5, parks), {op: 'w'}, deliver(1, 5, buffered)},
			left:  []int{0}, peak: 1},
		{name: "dead-owner-takes-nothing",
			steps: []step{receive(1, 5, parks), {op: 'k'}, deliver(1, 5, buffered)},
			left:  []int{0}, peak: 1},
		{name: "completed-receive-frees-the-slot",
			steps: []step{receive(1, 5, parks), deliver(1, 5, handed), receive(1, 6, parks), deliver(1, 6, handed)}},
		{name: "no-history-behind-a-stuck-front",
			steps: append([]step{deliver(0, 99, buffered)}, churn(1, 10000, 1)...),
			left:  []int{0}, peak: 2},
		{name: "second-parked-receive-panics",
			steps:  []step{receive(1, 5, parks), receive(1, 6, parks)},
			panics: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := vtime.NewSim()
			owner := sim.Spawn("owner", func(p *vtime.Proc) { p.Park() })
			sim.Run()
			box := &mailbox{}
			st := &commState{w: &World{Sim: sim}, boxes: []*mailbox{box}}
			var sent []*Message
			var rw *recvWait
			for i, s := range tc.steps {
				if tc.panics && i == len(tc.steps)-1 {
					defer func() {
						if recover() == nil {
							t.Fatalf("step %d did not panic", i)
						}
					}()
				}
				switch s.op {
				case 'd':
					m := &Message{Src: s.src, Tag: s.tag}
					sent = append(sent, m)
					waiting := rw
					st.deliver(0, m)
					if got := waiting != nil && waiting.msg == m; got != (s.want == handed) {
						t.Fatalf("step %d: delivery (src %d, tag %d) handed to the parked receive = %v", i, s.src, s.tag, got)
					}
					if s.want == handed {
						if !rw.done || box.wait != nil {
							t.Fatalf("step %d: the satisfied receive is still in its mailbox", i)
						}
						rw = nil
					}
				case 'r':
					m := box.matchBuffered(s.src, s.tag)
					if s.want == parks {
						if m != nil {
							t.Fatalf("step %d: receive (src %d, tag %d) took %+v, want nothing acceptable", i, s.src, s.tag, m)
						}
						rw = &recvWait{p: owner, src: s.src, tag: s.tag}
						box.post(rw)
					} else if m != sent[s.want] {
						t.Fatalf("step %d: receive (src %d, tag %d) took %+v, want delivery %d", i, s.src, s.tag, m, s.want)
					}
				case 'w':
					box.retire(rw)
					rw = nil
				case 'k':
					sim.Kill(owner)
					sim.Run()
				}
			}
			if len(box.msgs) != len(tc.left) {
				t.Fatalf("%d messages left buffered, want %d", len(box.msgs), len(tc.left))
			}
			for i, m := range box.msgs {
				if m != sent[tc.left[i]] {
					t.Fatalf("buffered[%d] = %+v, want delivery %d", i, m, tc.left[i])
				}
			}
			if got := box.parked() != nil; got != tc.parked {
				t.Fatalf("a live receive is parked = %v, want %v", got, tc.parked)
			}
			if box.peak != tc.peak {
				t.Fatalf("peak depth %d, want %d", box.peak, tc.peak)
			}
		})
	}
}
