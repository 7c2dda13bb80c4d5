package mpi

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"time"

	"ftmrmpi/internal/obs"
)

// Collectives are composed from point-to-point messages over binomial trees,
// which is what gives the simulation MPI-3's failure behaviour for free: a
// failure surfaces as a local error only on the ranks whose tree edges touch
// the dead process, while others proceed or block — the inconsistent global
// state described in paper §2.2. The exception is Alltoallv, whose message
// count is quadratic in the communicator size: it is a rendezvous
// (rendezvous.go) whose finish policy charges the same per-message cost model
// without simulating the messages.
//
// Every collective call consumes one per-rank operation sequence number; the
// sequence is embedded in the (negative, internal) message tags so traffic
// from an interrupted collective can never be matched by a later one.

// internalTag builds the reserved tag for collective op seq and substep.
func internalTag(seq, sub int) int { return -(seq*16 + sub + 1000) }

// nextSeq consumes the caller's collective sequence number.
func (c *Comm) nextSeq() int {
	s := c.st.opSeq[c.rank]
	c.st.opSeq[c.rank]++
	return s
}

// peekSeq returns the sequence number the next collective on this
// communicator will consume, without consuming it. Trace spans are stamped
// with (communicator id, peeked seq): every participant of one collective
// instance consumes the same seq — the tag scheme depends on it — so the
// pair identifies the instance exactly, including for wrapper collectives
// (Allreduce) whose synchronization happens in an inner call.
func (c *Comm) peekSeq() int { return c.st.opSeq[c.rank] }

// enterColl tells the observation planes that the caller enters collective
// op, stamped with (communicator id, peeked seq). Every collective opens with
//
//	defer c.enterColl(op).Exit()
func (c *Comm) enterColl(op string) obs.CollSpan {
	return c.r.obs.CollEnter(op, c.st.id, c.peekSeq())
}

// treeParent returns the parent of rank vr in the binomial tree rooted at
// rank 0, or -1 for the root.
func treeParent(vr int) int {
	if vr == 0 {
		return -1
	}
	// Clear the lowest set bit.
	return vr &^ (1 << uint(bits.TrailingZeros(uint(vr))))
}

// treeChildren returns the children of rank vr in the binomial tree over n
// ranks rooted at rank 0.
func treeChildren(vr, n int) []int {
	var kids []int
	lsb := bits.TrailingZeros(uint(vr))
	if vr == 0 {
		lsb = bits.Len(uint(n)) // root may own all bits
	}
	for b := 0; b < lsb; b++ {
		child := vr | 1<<uint(b)
		if child < n && child != vr {
			kids = append(kids, child)
		}
	}
	return kids
}

// Barrier blocks until every rank in the communicator has entered it. On
// failure it raises an error through the error handler.
func (c *Comm) Barrier() error {
	defer c.enterColl("barrier").Exit()
	seq := c.nextSeq()
	if _, err := c.gatherTree(seq, nil); err != nil {
		return c.raise(err)
	}
	if _, err := c.bcastTree(seq, nil); err != nil {
		return c.raise(err)
	}
	return nil
}

// bcastTree runs a binomial-tree broadcast from rank 0.
func (c *Comm) bcastTree(seq int, data []byte) ([]byte, error) {
	if parent := treeParent(c.rank); parent >= 0 {
		m, err := c.recv(parent, internalTag(seq, 1))
		if err != nil {
			return nil, err
		}
		data = m.Data
	}
	for _, child := range treeChildren(c.rank, c.Size()) {
		if _, err := c.send(child, internalTag(seq, 1), data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// gatherTree runs a binomial-tree gather to rank 0: each rank bundles its own
// payload with its subtree's and forwards to its parent. Rank 0 returns the bundle
// of the whole communicator. An inner node never decodes: it checks each
// child's bundle in one walk and concatenates the entry bytes after its own
// entry, so entries travel in tree order, not rank order — only a bundle's
// length is observable in virtual time.
func (c *Comm) gatherTree(seq int, data []byte) ([]byte, error) {
	n := c.Size()
	kids := treeChildren(c.rank, n)
	subs := make([][]byte, len(kids))
	count, size := 1, bundleHdrLen+entryHdrLen+len(data)
	// Children with larger low bits arrive later; receive them all.
	for i, child := range kids {
		m, err := c.recv(child, internalTag(seq, 2))
		if err != nil {
			return nil, err
		}
		cnt, entries, err := readBundle(m.Data, n, nil)
		if err != nil {
			return nil, err
		}
		subs[i] = entries
		count += cnt
		size += len(entries)
	}
	b := make([]byte, 0, size)
	b = binary.BigEndian.AppendUint32(b, uint32(count))
	b = appendEntry(b, c.rank, data)
	for _, entries := range subs {
		b = append(b, entries...)
	}
	if parent := treeParent(c.rank); parent >= 0 {
		_, err := c.send(parent, internalTag(seq, 2), b)
		return nil, err
	}
	return b, nil
}

// Allgather collects every rank's data on every rank, indexed by
// communicator rank: a gather to rank 0, whose bundle is broadcast as it
// stands and decoded by every rank.
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	defer c.enterColl("allgather").Exit()
	seq := c.nextSeq()
	b, err := c.gatherTree(seq, data)
	if err != nil {
		return nil, c.raise(err)
	}
	if b, err = c.bcastTree(seq, b); err != nil {
		return nil, c.raise(err)
	}
	out := make([][]byte, c.Size())
	if _, _, err := readBundle(b, c.Size(), out); err != nil {
		return nil, c.raise(err)
	}
	return out, nil
}

// AllreduceInt64 folds one int64 per rank with op (associative and
// commutative) and returns the result on every rank.
func (c *Comm) AllreduceInt64(v int64, op func(a, b int64) int64) (int64, error) {
	defer c.enterColl("allreduce").Exit()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v))
	all, err := c.Allgather(buf[:])
	if err != nil {
		return 0, err
	}
	acc := v
	for r, d := range all {
		if r == c.rank {
			continue
		}
		if len(d) != 8 {
			return 0, c.raise(fmt.Errorf("mpi: allreduce entry of rank %d has %d bytes, want 8", r, len(d)))
		}
		acc = op(acc, int64(binary.BigEndian.Uint64(d)))
	}
	return acc, nil
}

// Alltoallv exchanges bufs[i] (destined to comm rank i) among all ranks and
// returns the received buffers indexed by source rank — the shuffle's one
// collective. It is charged as a ring of Size-1 pairwise steps (at step s a
// rank sends to rank+s, then receives from rank-s, each message costing
// Cluster.TransferCost of its length), but no message is simulated: the ranks
// rendezvous, the last to enter evaluates the whole schedule (commState.arm),
// and each rank sleeps straight to its own completion instant.
//
// Failure semantics are ULFM's: entering with a failed member or on a revoked
// communicator fails at once; a member failing, a Revoke or an Abort while
// ranks are inside interrupts exactly those ranks (ProcFailedError,
// ErrRevoked, unwinding) — a rank that has left keeps its result, and may
// enter the next exchange while slower ranks are still in this one.
func (c *Comm) Alltoallv(bufs [][]byte) ([][]byte, error) {
	if n := c.Size(); len(bufs) != n {
		return nil, fmt.Errorf("mpi: Alltoallv needs %d buffers, got %d", n, len(bufs))
	}
	defer c.enterColl("alltoallv").Exit()
	c.nextSeq()
	if err := c.st.exchEntryErr(); err != nil {
		return nil, c.raise(err)
	}
	w := &meetWait{bufs: bufs}
	c.meetIn(meetExchange, w)
	if w.err != nil {
		return nil, c.raise(w.err)
	}
	return w.out, nil
}

// arm is the exchange's finish policy: it evaluates the ring schedule for
// every rank at once, as a pure function of entry instants and buffer
// lengths. With sent[r] the instant rank r's step-s message is delivered and
// end[r] the instant r finishes step s:
//
//	sent_r(s) = end_r(s-1) + TransferCost(len(bufs_r[r+s]))
//	end_r(s)  = max(sent_r(s), sent_{r-s}(s)),   end_r(0) = entry_r
//
// exactly what W-1 blocking send/recv steps per rank would produce, in O(W²)
// integer arithmetic and one event per rank, armed in comm-rank order. self
// is the (running) last entrant.
func (st *commState) arm(m *meet, self *meetWait) {
	n := len(m.waits)
	waits := make([]*meetWait, n) // by comm rank
	for _, w := range m.waits {
		waits[w.c.rank] = w
	}
	end, sent := make([]time.Duration, n), make([]time.Duration, n)
	for r, w := range waits {
		end[r] = w.entry
	}
	for s := 1; s < n; s++ {
		for r, w := range waits {
			sent[r] = end[r] + st.w.Clus.TransferCost(len(w.bufs[(r+s)%n]))
		}
		for r := range end {
			end[r] = max(sent[r], sent[(r-s+n)%n])
		}
	}
	now := st.w.Sim.Now()
	for r, w := range waits {
		w.out = make([][]byte, n)
		for src, from := range waits {
			w.out[src] = from.bufs[r]
		}
		w.at = end[r]
		if w != self || w.at > now {
			w.timer = st.w.Sim.WakeAfter(w.c.r.proc, w.at-now)
		}
	}
}

// exchEntryErr returns the error an Alltoallv entered now must raise, if any.
func (st *commState) exchEntryErr() error {
	if st.revoked {
		return ErrRevoked
	}
	if st.deadCount > 0 {
		for _, wr := range st.group {
			if !st.w.ranks[wr].alive {
				return &ProcFailedError{Ranks: []int{wr}}
			}
		}
	}
	return nil
}

// A bundle is the wire form of a set of per-rank payloads inside a tree
// collective: [count u32]([rank u32][len u32][payload])*, big-endian, entries
// in no particular order.
const (
	bundleHdrLen = 4
	entryHdrLen  = 8
)

// appendEntry appends one bundle entry to dst.
func appendEntry(dst []byte, rank int, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(rank))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// readBundle walks bundle b of an n-rank communicator and returns its entry
// count and entry bytes. It fails on a truncated or over-long bundle and on an
// entry whose rank is not below n. With a non-nil out it also decodes: b must
// then hold exactly one entry for each of the ranks below len(out), and out[i]
// — all nil on entry — receives the payload of rank i, aliasing b; an entry
// of another rank or repeating one is an error.
func readBundle(b []byte, n int, out [][]byte) (count int, entries []byte, err error) {
	if len(b) < bundleHdrLen {
		return 0, nil, fmt.Errorf("mpi: short bundle")
	}
	count, entries = int(binary.BigEndian.Uint32(b)), b[bundleHdrLen:]
	if out != nil && count != len(out) {
		return 0, nil, fmt.Errorf("mpi: bundle has %d entries, want %d", count, len(out))
	}
	rest := entries
	for i := 0; i < count; i++ {
		if len(rest) < entryHdrLen {
			return 0, nil, fmt.Errorf("mpi: truncated bundle entry")
		}
		rank := int(binary.BigEndian.Uint32(rest))
		l := int(binary.BigEndian.Uint32(rest[4:]))
		rest = rest[entryHdrLen:]
		if len(rest) < l {
			return 0, nil, fmt.Errorf("mpi: truncated bundle payload")
		}
		if rank >= n {
			return 0, nil, fmt.Errorf("mpi: bundle entry for rank %d of %d", rank, n)
		}
		if out != nil {
			if rank >= len(out) {
				return 0, nil, fmt.Errorf("mpi: bundle entry for rank %d, outside the first %d ranks", rank, len(out))
			}
			if out[rank] != nil {
				return 0, nil, fmt.Errorf("mpi: bundle repeats rank %d", rank)
			}
			out[rank] = rest[:l:l] // non-nil even when empty: rest is
		}
		rest = rest[l:]
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("mpi: %d bytes after the last bundle entry", len(rest))
	}
	return count, entries, nil
}
