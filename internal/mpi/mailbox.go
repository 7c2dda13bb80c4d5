package mpi

import (
	"time"

	"ftmrmpi/internal/vtime"
)

// Mailbox matching strategy: a mailbox scans linearly while it is shallow and
// upgrades to per-(src,tag) indexed buckets once it holds enough live messages
// or waiters. Both regimes implement the same matching relation — first match
// in arrival order for messages, first match in posting order for waiters — so
// the choice is invisible to a run (pinned against the O(n) reference model in
// mailbox_test.go).
const (
	// msgIndexThreshold is the live-message count past which a mailbox
	// builds per-(src,tag) message buckets.
	msgIndexThreshold = 32
	// waiterIndexThreshold is the live-waiter count past which a mailbox
	// builds per-(src,tag) waiter buckets.
	waiterIndexThreshold = 16
)

// matchKey identifies a message bucket (exact src and tag) or a waiter
// bucket (the posted pattern, where src may be AnySource and tag AnyTag).
type matchKey struct {
	src int
	tag int
}

// recvWait is a parked receive. Fields are written by the matching side
// (deliver/onFailure/Revoke) and read by the parked process after it wakes.
type recvWait struct {
	p   *vtime.Proc
	src int // comm rank or AnySource
	tag int // tag or AnyTag
	msg *Message
	err error
	// done marks the wait as satisfied (msg or err set) — and doubles as
	// the tombstone that index buckets and the posting-order list skip.
	done bool
	// seq is the mailbox-local posting sequence number; the indexed matcher
	// uses it to reproduce exact posting-order selection across buckets.
	seq uint64
	// postedVT is the virtual time the wait was posted, stamped by addWaiter.
	// The introspection plane reports it as the blocked-since time.
	postedVT time.Duration
}

// expired reports that the wait can never match: satisfied already, or its
// process died.
func (rw *recvWait) expired() bool { return rw.done || rw.p.Dead() }

// msgBucket is an arrival-ordered FIFO of live messages for one (src, tag)
// or one tag. Consumed entries (Message.taken) are trimmed from the front
// lazily; draining resets the slice in place, so a bucket that empties and
// refills every burst reuses its capacity instead of churning allocations.
type msgBucket struct {
	items []*Message
	head  int
}

// push appends a message in arrival order.
func (b *msgBucket) push(m *Message) { b.items = append(b.items, m) }

// front trims consumed messages and returns the earliest live message, or
// nil when the bucket is empty.
func (b *msgBucket) front() *Message {
	for b.head < len(b.items) {
		if m := b.items[b.head]; !m.taken {
			return m
		}
		b.items[b.head] = nil
		b.head++
	}
	b.items = b.items[:0]
	b.head = 0
	return nil
}

// waitBucket is the posting-ordered analogue of msgBucket for parked
// receives.
type waitBucket struct {
	items []*recvWait
	head  int
}

// push appends a waiter in posting order.
func (b *waitBucket) push(rw *recvWait) { b.items = append(b.items, rw) }

// front trims expired waiters and returns the earliest live one, or nil.
func (b *waitBucket) front() *recvWait {
	for b.head < len(b.items) {
		if rw := b.items[b.head]; !rw.expired() {
			return rw
		}
		b.items[b.head] = nil
		b.head++
	}
	b.items = b.items[:0]
	b.head = 0
	return nil
}

// mailbox holds unmatched arrived messages and parked receivers for one
// (communicator, destination-rank) pair.
//
// Both sides are append-only arrival/posting-order slices with lazy
// tombstone compaction. The first time a side's live count crosses its
// threshold the mailbox additionally builds index buckets — messages under
// their exact (src, tag) and under tag alone, waiters under their posted
// (src-or-AnySource, tag-or-AnyTag) pattern — and maintains them for the
// rest of its life. Matching then touches only the buckets a query can
// possibly hit — one for exact receives, at most four for a delivery —
// instead of scanning every buffered message or parked waiter. Wildcard-tag
// message queries ((src, AnyTag) and (AnySource, AnyTag)) fall back to the
// linear arrival scan; no hot path posts them.
type mailbox struct {
	// msgs is the arrival-order list; consumed entries are nil. head is the
	// first possibly-live index, msgLive the live count.
	msgs    []*Message
	head    int
	msgLive int
	// byKey/byTag are the message index (nil until built).
	byKey map[matchKey]*msgBucket
	byTag map[int]*msgBucket

	// waiters is the posting-order list; satisfied entries tombstone via
	// recvWait.done. whead/waitLive mirror head/msgLive.
	waiters  []*recvWait
	whead    int
	waitLive int
	// wByKey is the waiter index (nil until built), bucketed by posted
	// pattern.
	wByKey map[matchKey]*waitBucket
	wseq   uint64
}

// --- message side ---------------------------------------------------------

// indexMsg inserts m into the message index buckets. The byTag index is
// lazy — maintained only once an (AnySource, tag) query has forced its
// construction, so boxes that only ever see exact receives pay for one
// index, not two.
func (box *mailbox) indexMsg(m *Message) {
	k := matchKey{m.Src, m.Tag}
	kb := box.byKey[k]
	if kb == nil {
		kb = &msgBucket{}
		box.byKey[k] = kb
	}
	kb.push(m)
	if box.byTag != nil {
		tb := box.byTag[m.Tag]
		if tb == nil {
			tb = &msgBucket{}
			box.byTag[m.Tag] = tb
		}
		tb.push(m)
	}
}

// pushMsg appends a newly delivered, unmatched message.
func (box *mailbox) pushMsg(m *Message) {
	box.msgs = append(box.msgs, m)
	box.msgLive++
	if box.byKey != nil {
		box.indexMsg(m)
	} else if box.msgLive > msgIndexThreshold {
		box.buildMsgIndex()
	}
}

// buildMsgIndex populates byKey from the live arrival list. Built once per
// mailbox (first time it grows past the threshold) and maintained from then
// on.
func (box *mailbox) buildMsgIndex() {
	box.byKey = make(map[matchKey]*msgBucket)
	for _, m := range box.msgs[box.head:] {
		if m == nil || m.taken {
			continue
		}
		box.indexMsg(m)
	}
}

// buildTagIndex populates byTag on the first (AnySource, tag) query against
// an indexed box; indexMsg maintains it from then on.
func (box *mailbox) buildTagIndex() {
	box.byTag = make(map[int]*msgBucket)
	for _, m := range box.msgs[box.head:] {
		if m == nil || m.taken {
			continue
		}
		tb := box.byTag[m.Tag]
		if tb == nil {
			tb = &msgBucket{}
			box.byTag[m.Tag] = tb
		}
		tb.push(m)
	}
}

// consumeMsg marks m consumed in the arrival list (the index buckets skip
// it via m.taken when it reaches a bucket front).
func (box *mailbox) consumeMsg(m *Message) {
	m.taken = true
	box.msgLive--
	for box.head < len(box.msgs) {
		if mm := box.msgs[box.head]; mm != nil && !mm.taken {
			break
		}
		box.msgs[box.head] = nil
		box.head++
	}
	if box.msgLive == 0 {
		box.msgs = box.msgs[:0]
		box.head = 0
	} else if spread := len(box.msgs) - box.head; spread > 64 && spread > 4*box.msgLive {
		// Middle-consumed tombstones can pile up behind one long-lived front
		// message (head only trims the front), and an unindexed box's linear
		// scans would walk them on every receive. Compact in place — arrival
		// order is preserved, and the index buckets hold message pointers,
		// not list positions, so they are unaffected.
		box.compactMsgs()
	}
}

// compactMsgs rewrites the arrival list to live messages only, dropping
// tombstones and resetting head.
func (box *mailbox) compactMsgs() {
	live := box.msgs[:0]
	for _, m := range box.msgs[box.head:] {
		if m != nil && !m.taken {
			live = append(live, m)
		}
	}
	for i := len(live); i < len(box.msgs); i++ {
		box.msgs[i] = nil
	}
	box.msgs = live
	box.head = 0
}

// matchBuffered removes and returns the first buffered message in arrival
// order matching (src, tag), or nil. src may be AnySource, tag may be
// AnyTag (AnyTag matches only non-negative user tags).
func (box *mailbox) matchBuffered(src, tag int) *Message {
	if box.msgLive == 0 {
		return nil
	}
	if box.byKey != nil && tag != AnyTag {
		var b *msgBucket
		if src != AnySource {
			b = box.byKey[matchKey{src, tag}]
		} else {
			if box.byTag == nil {
				box.buildTagIndex()
			}
			b = box.byTag[tag]
		}
		if b == nil {
			return nil
		}
		m := b.front()
		if m == nil {
			return nil
		}
		box.consumeMsg(m)
		return m
	}
	for i := box.head; i < len(box.msgs); i++ {
		m := box.msgs[i]
		if m == nil || m.taken {
			continue
		}
		if (src == AnySource || src == m.Src) && tagMatch(tag, m.Tag) {
			box.consumeMsg(m)
			return m
		}
	}
	return nil
}

// --- waiter side ----------------------------------------------------------

// addWaiter posts a parked receive.
func (box *mailbox) addWaiter(rw *recvWait) {
	box.wseq++
	rw.seq = box.wseq
	rw.postedVT = rw.p.Now()
	box.waiters = append(box.waiters, rw)
	box.waitLive++
	if box.wByKey != nil {
		box.indexWaiter(rw)
	} else if box.waitLive > waiterIndexThreshold {
		box.buildWaiterIndex()
	}
}

// indexWaiter inserts rw into its posted-pattern bucket.
func (box *mailbox) indexWaiter(rw *recvWait) {
	k := matchKey{rw.src, rw.tag}
	b := box.wByKey[k]
	if b == nil {
		b = &waitBucket{}
		box.wByKey[k] = b
	}
	b.push(rw)
}

// buildWaiterIndex populates wByKey from the live posting-order list. Built
// once, maintained from then on.
func (box *mailbox) buildWaiterIndex() {
	box.wByKey = make(map[matchKey]*waitBucket)
	for _, rw := range box.waiters[box.whead:] {
		if rw == nil || rw.expired() {
			continue
		}
		box.indexWaiter(rw)
	}
}

// retireWaiter accounts a waiter leaving the live set. The caller must
// already have set rw.done (the tombstone the buckets and list skip).
func (box *mailbox) retireWaiter() {
	box.waitLive--
	for box.whead < len(box.waiters) {
		if rw := box.waiters[box.whead]; rw != nil && !rw.expired() {
			break
		}
		box.waiters[box.whead] = nil
		box.whead++
	}
	if box.waitLive == 0 {
		box.waiters = box.waiters[:0]
		box.whead = 0
	} else if spread := len(box.waiters) - box.whead; spread > 64 && spread > 4*box.waitLive {
		// Same tombstone-pileup hazard as the message list: compact the
		// posting-order list to live waiters (order, and so posting-order
		// matching, is preserved; buckets hold pointers).
		live := box.waiters[:0]
		for _, rw := range box.waiters[box.whead:] {
			if rw != nil && !rw.expired() {
				live = append(live, rw)
			}
		}
		for i := len(live); i < len(box.waiters); i++ {
			box.waiters[i] = nil
		}
		box.waiters = live
		box.whead = 0
	}
}

// unwait removes a still-pending waiter (abort/interrupt unwinding).
func (box *mailbox) unwait(rw *recvWait) {
	if rw.done {
		return
	}
	rw.done = true
	box.retireWaiter()
}

// takeWaiter removes and returns the earliest-posted live waiter matching
// a delivered message, or nil. The caller sets msg/err and wakes the
// process.
func (box *mailbox) takeWaiter(msg *Message) *recvWait {
	if box.waitLive == 0 {
		return nil
	}
	if box.wByKey != nil {
		// A message can only match waiters in the four buckets for its
		// (src, tag) against the posted pattern; pick the earliest-posted
		// live front among them (wildcard-tag patterns only match user
		// tags).
		var best *recvWait
		consider := func(k matchKey) {
			if b := box.wByKey[k]; b != nil {
				if rw := b.front(); rw != nil && (best == nil || rw.seq < best.seq) {
					best = rw
				}
			}
		}
		consider(matchKey{msg.Src, msg.Tag})
		consider(matchKey{AnySource, msg.Tag})
		if msg.Tag >= 0 {
			consider(matchKey{msg.Src, AnyTag})
			consider(matchKey{AnySource, AnyTag})
		}
		if best == nil {
			return nil
		}
		best.done = true
		box.retireWaiter()
		return best
	}
	for i := box.whead; i < len(box.waiters); i++ {
		rw := box.waiters[i]
		if rw == nil || rw.expired() {
			continue
		}
		if (rw.src == AnySource || rw.src == msg.Src) && tagMatch(rw.tag, msg.Tag) {
			rw.done = true
			box.retireWaiter()
			return rw
		}
	}
	return nil
}

// eachLiveWaiter calls fn on every live waiter in posting order without
// completing or retiring anything — the introspection plane's read-only
// walk (contrast eachWaiter, which completes waiters in bulk).
func (box *mailbox) eachLiveWaiter(fn func(*recvWait)) {
	for i := box.whead; i < len(box.waiters); i++ {
		if rw := box.waiters[i]; rw != nil && !rw.expired() {
			fn(rw)
		}
	}
}

// eachWaiter calls fn on every live waiter in posting order; when fn
// returns true the waiter is retired (fn sets err before returning true,
// the wake is fn's responsibility). Used by failure notification and
// revocation, which complete waiters in bulk.
func (box *mailbox) eachWaiter(fn func(*recvWait) bool) {
	// Retire after the scan: retireWaiter may compact the list, which would
	// shift entries under the index loop.
	retired := 0
	for i := box.whead; i < len(box.waiters); i++ {
		rw := box.waiters[i]
		if rw == nil || rw.expired() {
			continue
		}
		if fn(rw) {
			rw.done = true
			retired++
		}
	}
	for ; retired > 0; retired-- {
		box.retireWaiter()
	}
}
