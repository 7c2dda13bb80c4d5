package mpi

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"

	"ftmrmpi/internal/vtime"
)

// TestMailboxCompactsTombstones pins the arrival-list compaction bound: a
// long-lived message stuck at the front of an unindexed mailbox must not
// let middle-consumed tombstones accumulate behind it (head only trims the
// front, so without compaction every later linear scan would walk the
// holes — the O(history) pathology the W=10000 ceiling run exposed). Two
// live messages at most: the box stays far below the index threshold.
func TestMailboxCompactsTombstones(t *testing.T) {
	box := &mailbox{}
	// A front message nobody receives for the whole test.
	box.pushMsg(&Message{Src: 0, Tag: 99})
	for i := 0; i < 10000; i++ {
		box.pushMsg(&Message{Src: 1, Tag: i})
		if m := box.matchBuffered(1, i); m == nil || m.Tag != i {
			t.Fatalf("lost message tag %d", i)
		}
		if spread := len(box.msgs) - box.head; spread > 256 {
			t.Fatalf("after %d middle consumes: %d list entries for %d live messages",
				i+1, spread, box.msgLive)
		}
	}
	if box.msgLive != 1 {
		t.Fatalf("live count = %d, want the stuck front message only", box.msgLive)
	}
	if m := box.matchBuffered(0, 99); m == nil {
		t.Fatal("stuck front message was lost by compaction")
	}
}

// TestWaiterListCompactsTombstones is the waiter-side analogue: one parked
// receive that never matches must not anchor an ever-growing list of
// satisfied waiters behind it.
func TestWaiterListCompactsTombstones(t *testing.T) {
	// expired() consults the waiter's process, so give every waiter a live
	// (never-run) one.
	p := vtime.NewSim().Spawn("waiter", func(*vtime.Proc) {})

	box := &mailbox{}
	stuck := &recvWait{p: p, src: 0, tag: 99}
	box.addWaiter(stuck)
	for i := 0; i < 10000; i++ {
		box.addWaiter(&recvWait{p: p, src: 1, tag: i})
		if rw := box.takeWaiter(&Message{Src: 1, Tag: i}); rw == nil || rw.tag != i {
			t.Fatalf("lost waiter for tag %d", i)
		}
		if spread := len(box.waiters) - box.whead; spread > 256 {
			t.Fatalf("after %d middle retires: %d list entries for %d live waiters",
				i+1, spread, box.waitLive)
		}
	}
	if box.waitLive != 1 {
		t.Fatalf("live count = %d, want the stuck waiter only", box.waitLive)
	}
	if rw := box.takeWaiter(&Message{Src: 0, Tag: 99}); rw != stuck {
		t.Fatal("stuck waiter was lost by compaction")
	}
}

// refBox is the reference model of the matching relation: one arrival-order
// list of buffered messages, one posting-order list of parked receives, and
// every query an O(n) scan from the front — the matcher as it was before the
// index. It shares its Message and recvWait values with the mailbox under
// test (it reads expired(), never writes), so "the same choice" is pointer
// equality.
type refBox struct {
	msgs    []*Message
	waiters []*recvWait
}

func refAccepts(src, tag int, m *Message) bool {
	return (src == AnySource || src == m.Src) && tagMatch(tag, m.Tag)
}

// match removes and returns the first buffered message, in arrival order,
// that a receive posted for (src, tag) accepts.
func (b *refBox) match(src, tag int) *Message {
	for i, m := range b.msgs {
		if refAccepts(src, tag, m) {
			b.msgs = slices.Delete(b.msgs, i, i+1)
			return m
		}
	}
	return nil
}

// take removes and returns the earliest-posted live waiter that accepts msg.
func (b *refBox) take(msg *Message) *recvWait {
	for i, rw := range b.waiters {
		if !rw.expired() && refAccepts(rw.src, rw.tag, msg) {
			b.waiters = slices.Delete(b.waiters, i, i+1)
			return rw
		}
	}
	return nil
}

// unwait withdraws a still-pending waiter.
func (b *refBox) unwait(rw *recvWait) {
	if i := slices.Index(b.waiters, rw); i >= 0 {
		b.waiters = slices.Delete(b.waiters, i, i+1)
	}
}

// The production mailbox — linear while shallow, indexed once deep — against
// the reference model, over seeded random runs of the six things that happen
// to a mailbox: a delivery takes a parked waiter or is pushed; a receive
// matches a buffered message or is posted; a pending waiter is withdrawn
// (abort unwinding); a waiter's process dies. Sources and tags are drawn from
// small sets, wildcards and internal (negative) tags included, and the mix
// swings to receive-heavy when messages pile up and back to delivery-heavy
// when waiters do, so both sides climb past their index thresholds and drain
// again. The same message or waiter must be chosen at every step.
func TestMailboxMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// Waiters park on processes that can die: a pool of procs parked
			// forever, killed one at a time by the expire step.
			sim := vtime.NewSim()
			live := make([]*vtime.Proc, 64)
			for i := range live {
				live[i] = sim.Spawn(fmt.Sprint("p", i), func(p *vtime.Proc) { p.Park() })
			}
			sim.Run()

			box, ref := &mailbox{}, &refBox{}
			draw := func(wild int, vals ...int) int {
				if rng.Intn(100) < 15 {
					return wild
				}
				return vals[rng.Intn(len(vals))]
			}
			srcs, tags := []int{0, 1, 2, 3, 4, 5}, []int{0, 1, 2, 3, internalTag(7, 2)}
			deliverPct := 85
			var maxMsgs, maxWaiters int
			for step := 0; step < 6000; step++ {
				switch {
				case box.msgLive > 2*msgIndexThreshold:
					deliverPct = 15
				case box.waitLive > 2*waiterIndexThreshold:
					deliverPct = 85
				}
				switch op := rng.Intn(100); {
				case op < 4 && len(ref.waiters) > 0: // unwait
					rw := ref.waiters[rng.Intn(len(ref.waiters))]
					ref.unwait(rw)
					box.unwait(rw)
				case op == 4 && len(live) > 16: // expire: every waiter parked on the process
					i := rng.Intn(len(live))
					sim.Kill(live[i])
					sim.Run()
					live = slices.Delete(live, i, i+1)
				case op < 5+deliverPct*95/100: // deliver
					msg := &Message{Src: srcs[rng.Intn(len(srcs))], Tag: tags[rng.Intn(len(tags))]}
					want, got := ref.take(msg), box.takeWaiter(msg)
					if got != want {
						t.Fatalf("step %d: delivery of (src %d, tag %d) took waiter %+v, reference %+v", step, msg.Src, msg.Tag, got, want)
					}
					if want == nil {
						ref.msgs = append(ref.msgs, msg)
						box.pushMsg(msg)
					}
				default: // receive
					src, tag := draw(AnySource, srcs...), draw(AnyTag, tags...)
					want, got := ref.match(src, tag), box.matchBuffered(src, tag)
					if got != want {
						t.Fatalf("step %d: receive (src %d, tag %d) matched %+v, reference %+v", step, src, tag, got, want)
					}
					if want == nil {
						rw := &recvWait{p: live[rng.Intn(len(live))], src: src, tag: tag}
						ref.waiters = append(ref.waiters, rw)
						box.addWaiter(rw)
					}
				}
				if box.msgLive != len(ref.msgs) || box.waitLive != len(ref.waiters) {
					t.Fatalf("step %d: %d messages and %d waiters live, reference %d and %d",
						step, box.msgLive, box.waitLive, len(ref.msgs), len(ref.waiters))
				}
				maxMsgs, maxWaiters = max(maxMsgs, box.msgLive), max(maxWaiters, box.waitLive)
			}
			if box.byKey == nil || box.wByKey == nil {
				t.Fatalf("the run never crossed both index thresholds (peak %d messages, %d waiters): it compared the linear scans with themselves",
					maxMsgs, maxWaiters)
			}
		})
	}
}

// TestIndexedMatchingOutpacesReferenceScan is the mailbox half of the
// simulator-throughput gate (`make throughput-gate`; the event budget half is
// internal/bench's TestThroughputGate; opt-in through the same variable
// because it times the host). One hub's share of the thr-des incast — ~16 000
// banked messages received by exact (src, tag) in reverse arrival order, the
// worst case for a scan — must drain at least 1.4x faster from the production
// mailbox than from the reference model. Host-independent: it compares two
// structures on one host, and a mailbox index that has stopped answering from
// its buckets loses the ratio whatever the machine.
func TestIndexedMatchingOutpacesReferenceScan(t *testing.T) {
	if os.Getenv("FTMR_THROUGHPUT_GATE") == "" {
		t.Skip("set FTMR_THROUGHPUT_GATE=1 to run the simulator throughput gate (make throughput-gate)")
	}
	const senders, reps = 499, 32
	drain := func(push func(*Message), match func(src, tag int) *Message) time.Duration {
		start := time.Now()
		for src := 0; src < senders; src++ {
			for tag := 0; tag < reps; tag++ {
				push(&Message{Src: src, Tag: tag})
			}
		}
		for src := senders - 1; src >= 0; src-- {
			for tag := reps - 1; tag >= 0; tag-- {
				if m := match(src, tag); m == nil || m.Src != src || m.Tag != tag {
					t.Fatalf("receive (src %d, tag %d) matched %+v", src, tag, m)
				}
			}
		}
		return time.Since(start)
	}
	var idx, lin time.Duration
	for round := 0; round < 2; round++ { // the first round warms both
		box, ref := &mailbox{}, &refBox{}
		idx = drain(box.pushMsg, box.matchBuffered)
		lin = drain(func(m *Message) { ref.msgs = append(ref.msgs, m) }, ref.match)
	}
	ratio := lin.Seconds() / idx.Seconds()
	t.Logf("reference scan %v, production mailbox %v: %.1fx", lin, idx, ratio)
	const minRatio = 1.4
	if ratio < minRatio {
		t.Fatalf("throughput gate: the mailbox drains the incast only %.2fx faster than the O(n) reference (want >= %.2fx); the index regressed", ratio, minRatio)
	}
}
