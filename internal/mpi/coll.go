package mpi

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Every collective is a rendezvous (rendezvous.go) that simulates no
// message: the ranks meet, the last to enter evaluates the cost of the
// message schedule the collective stands for — a ring for Alltoallv
// (commState.arm), a binomial tree for Barrier, Allgather and AllreduceInt64
// (commState.armTree) — and each rank sleeps straight to its own completion
// instant. Failure semantics are ULFM's at rendezvous granularity: entering
// with a failed member or on a revoked communicator fails at once; a member
// failing, a Revoke or an Abort while ranks are inside interrupts exactly
// those ranks (ProcFailedError, ErrRevoked, unwinding) — a rank that has left
// keeps its result, and may enter the next collective while slower ranks are
// still in this one.

// collective enters the caller, with its contribution w, into the meeting of
// the kind and returns the meeting once the caller is released, or raises
// the error that turned it away or interrupted it. The observation planes see
// collective op once, stamped with the communicator id and the caller's
// collective sequence number, which it consumes (every participant of one
// instance carries the same one): one count, and one trace span that closes
// when the caller returns, its error handler run.
func (c *Comm) collective(op string, kind meetKind, w *meetWait) (*meet, error) {
	defer c.r.obs.CollEnter(op, c.st.id, c.st.opSeq[c.rank]).Exit()
	c.st.opSeq[c.rank]++
	if err := c.st.entryErr(); err != nil {
		return nil, c.raise(err)
	}
	w.op = op
	m := c.meetIn(kind, w)
	if w.err != nil {
		return nil, c.raise(w.err)
	}
	return m, nil
}

// entryErr returns the error a collective entered now must raise, if any.
func (st *commState) entryErr() error {
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

// Barrier blocks until every rank in the communicator has entered it. On
// failure it raises an error through the error handler.
func (c *Comm) Barrier() error {
	_, err := c.collective("barrier", meetTree, &meetWait{})
	return err
}

// Allgather collects every rank's data on every rank, indexed by
// communicator rank. The result is one slice shared by every rank of the
// communicator, and its entries alias the callers' data (capped at their
// length, so an append copies): both are read-only to every rank, the caller
// included, for as long as any rank holds the result.
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	m, err := c.collective("allgather", meetTree, &meetWait{bufs: [][]byte{data}})
	if err != nil {
		return nil, err
	}
	return m.all, nil
}

// AllreduceInt64 folds one int64 per rank with op (associative and
// commutative) and returns the result on every rank. It costs what an
// Allgather of 8 bytes per rank costs, and the last rank in folds once for
// everyone.
func (c *Comm) AllreduceInt64(v int64, op func(a, b int64) int64) (int64, error) {
	w := &meetWait{bufs: [][]byte{binary.BigEndian.AppendUint64(nil, uint64(v))}, fold: op}
	m, err := c.collective("allreduce", meetTree, w)
	if err != nil {
		return 0, err
	}
	return m.acc, nil
}

// armTree is the finish policy of Barrier, Allgather and AllreduceInt64: the
// cost of a binomial tree rooted at rank 0 — every rank's payload gathered up
// the tree, then the gathered bundle (nothing, for a Barrier) broadcast back
// down — evaluated for every rank at once, in O(W). Rank v's children are
// v+2^b for each 2^b below v's lowest set bit (each 2^b < W at the root), in
// ascending b; its parent clears that bit. A bundle holds a 4-byte count and
// an 8-byte header plus the payload per rank, so with L the length of the
// whole bundle (0 for a Barrier):
//
//	t_v = max(entry_v, g_k for each child k)              (v has heard its subtree)
//	g_v = t_v + TransferCost(4 + Σ_{u in subtree(v)} (8 + len_u))   (v's bundle reaches its parent)
//	s_v = max(g_v, b_v), or t_0 at the root; then per child k in order:
//	      s_v += TransferCost(L), b_k = s_v                      (v's copy reaches k)
//
// and v is released at its final s_v: exactly what blocking sends (the
// sender busy for the transfer, delivering at its end) and receives (returning
// at the later of their posting and the delivery) over that tree produce.
// waits is indexed by comm rank.
func (st *commState) armTree(m *meet, waits []*meetWait) {
	n := len(waits)
	cost := st.w.Clus.TransferCost
	at := make([]time.Duration, n) // t_v, then g_v, then s_v
	size := make([]int, n)         // Σ (8 + len_u) over v's subtree
	for v, w := range waits {
		at[v], size[v] = w.entry, 8
		if w.bufs != nil {
			size[v] += len(w.bufs[0])
		}
	}
	for v := n - 1; v > 0; v-- { // children before parents
		at[v] += cost(4 + size[v])
		p := v & (v - 1)
		at[p] = max(at[p], at[v])
		size[p] += size[v]
	}
	bcast := 0 // a Barrier broadcasts nothing
	if waits[0].bufs != nil {
		bcast = 4 + size[0]
		m.all = make([][]byte, n)
		for r, w := range waits {
			d := w.bufs[0]
			m.all[r] = d[:len(d):len(d)]
		}
		if op := waits[0].fold; op != nil { // AllreduceInt64
			m.acc = int64(binary.BigEndian.Uint64(m.all[0]))
			for _, d := range m.all[1:] {
				m.acc = op(m.acc, int64(binary.BigEndian.Uint64(d)))
			}
		}
	}
	hop := cost(bcast)
	for v, w := range waits { // parents before children
		s := at[v]
		for bit := 1; bit < n-v && (v == 0 || bit < v&-v); bit <<= 1 {
			s += hop
			at[v+bit] = max(at[v+bit], s)
		}
		w.at = s
	}
}

// Alltoallv exchanges bufs[i] (destined to comm rank i) among all ranks and
// returns the received buffers indexed by source rank — the shuffle's one
// collective. It is charged as a ring of Size-1 pairwise steps (at step s a
// rank sends to rank+s, then receives from rank-s, each message costing
// Cluster.TransferCost of its length): commState.arm.
func (c *Comm) Alltoallv(bufs [][]byte) ([][]byte, error) {
	if n := c.Size(); len(bufs) != n {
		return nil, fmt.Errorf("mpi: Alltoallv needs %d buffers, got %d", n, len(bufs))
	}
	w := &meetWait{bufs: bufs}
	if _, err := c.collective("alltoallv", meetExchange, w); err != nil {
		return nil, err
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
// integer arithmetic. waits is indexed by comm rank.
func (st *commState) arm(waits []*meetWait) {
	n := len(waits)
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
	for r, w := range waits {
		w.out = make([][]byte, n)
		for src, from := range waits {
			w.out[src] = from.bufs[r]
		}
		w.at = end[r]
	}
}
