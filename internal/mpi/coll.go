package mpi

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// Every collective is a rendezvous (rendezvous.go) that simulates no
// message: the ranks meet, the last to enter evaluates the cost of the
// message schedule the collective stands for — a ring for AlltoallvSparse
// (commState.arm), a binomial tree for Barrier and the gathering calls
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
	all, err := c.gather("allgather", data, len(data), func(all []any) any {
		out := make([][]byte, len(all))
		for r, v := range all {
			d := v.([]byte)
			out[r] = d[:len(d):len(d)]
		}
		return out
	})
	if err != nil {
		return nil, err
	}
	return all.([][]byte), nil
}

// AllgatherFold gathers every rank's value v as Allgather gathers bytes — the
// same tree, the same op in the trace, each v priced as a payload of size
// bytes — and returns fold(all) on every rank: the last rank in calls comm
// rank 0's fold once, over the values indexed by communicator rank, and every
// rank receives that one result. A meeting a failure or a Revoke interrupts
// never calls it. Every rank passes a fold that computes the same value, so
// fold may read only what the ranks hold alike; it runs inside whichever
// rank's step completes the meeting, while every other contributor is parked
// in it, so it must not block or record. all and the result are shared and
// read-only, and no value may be written until the gather returns.
func (c *Comm) AllgatherFold(v any, size int, fold func(all []any) any) (any, error) {
	return c.gather("allgather", v, size, fold)
}

// AllreduceInt64 folds one int64 per rank with op (associative and
// commutative) and returns the result on every rank. It costs what an
// Allgather of 8 bytes per rank costs, and the last rank in folds once for
// everyone, in communicator rank order.
func (c *Comm) AllreduceInt64(v int64, op func(a, b int64) int64) (int64, error) {
	acc, err := c.gather("allreduce", v, 8, func(all []any) any {
		acc := all[0].(int64)
		for _, d := range all[1:] {
			acc = op(acc, d.(int64))
		}
		return acc
	})
	if err != nil {
		return 0, err
	}
	return acc.(int64), nil
}

// gather is the gathering calls' one meeting: a tree over every rank's value,
// priced at size bytes, whose result is fold's value.
func (c *Comm) gather(op string, v any, size int, fold func(all []any) any) (any, error) {
	m, err := c.collective(op, meetTree, &meetWait{val: v, size: size, fold: fold})
	if err != nil {
		return nil, err
	}
	return m.folded, nil
}

// armTree is the finish policy of Barrier and the gathering calls: the
// cost of a binomial tree rooted at rank 0 — every rank's payload gathered up
// the tree, then the gathered bundle (nothing, for a Barrier) broadcast back
// down — evaluated for every rank at once, in O(W). Rank v's children are
// v+2^b for each 2^b below v's lowest set bit (each 2^b < W at the root), in
// ascending b; its parent clears that bit. A bundle holds a 4-byte count and
// an 8-byte header plus the payload per rank, so with L the length of the
// whole bundle (0 for a Barrier) and len_u rank u's priced size:
//
//	t_v = max(entry_v, g_k for each child k)              (v has heard its subtree)
//	g_v = t_v + TransferCost(4 + Σ_{u in subtree(v)} (8 + len_u))   (v's bundle reaches its parent)
//	s_v = max(g_v, b_v), or t_0 at the root; then per child k in order:
//	      s_v += TransferCost(L), b_k = s_v                      (v's copy reaches k)
//
// and v is released at its final s_v: exactly what blocking sends (the
// sender busy for the transfer, delivering at its end) and receives (returning
// at the later of their posting and the delivery) over that tree produce. A
// gathering call's fold runs here, once. waits is indexed by comm rank.
func (st *commState) armTree(m *meet, waits []*meetWait) {
	n := len(waits)
	cost := st.w.Clus.TransferCost
	at := make([]time.Duration, n) // t_v, then g_v, then s_v
	size := make([]int, n)         // Σ (8 + len_u) over v's subtree
	for v, w := range waits {
		at[v], size[v] = w.entry, 8+w.size
	}
	for v := n - 1; v > 0; v-- { // children before parents
		at[v] += cost(4 + size[v])
		p := v & (v - 1)
		at[p] = max(at[p], at[v])
		size[p] += size[v]
	}
	bcast := 0 // a Barrier broadcasts nothing
	if waits[0].fold != nil {
		bcast = 4 + size[0]
		all := make([]any, n)
		for r, w := range waits {
			all[r] = w.val
		}
		m.folded = waits[0].fold(all)
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

// Block is one route of a sparse exchange: on the send side the bytes bound
// for comm rank Peer, on the receive side the bytes that came from it. A
// route is pointer-free: the exchange moves no byte, it prices the route at
// its Size, as AllgatherFold prices its values, and what the bytes stand for
// is the value its sender passed to the exchange.
type Block struct {
	Peer int32 // a comm rank: the destination of a route sent, the source of a route received
	Size int32 // the bytes the route is priced at on the wire
}

// AlltoallvSparse is the shuffle's one collective: every rank passes one
// value, val, and sends each of its routes to the route's peer, and receives
// the routes sent to it. send lists the routes by strictly ascending peer,
// and a peer with no route is sent nothing, as MPI_Alltoallv sends nothing
// for a zero count. recv lists what arrived by ascending source, Peer naming
// the source, and vals[src] is the value comm rank src passed: the receiver
// finds in it what src's route to it carries. recv is a window of one slice
// and vals one slice, both shared by the meeting's ranks, and every value is
// read-only to every rank. The exchange is charged as a ring of Size-1
// pairwise steps (at step s a rank sends to rank+s, then receives from
// rank-s, each message costing Cluster.TransferCost of its route's Size, 0
// bytes to a peer with no route): commState.arm. A send list out of order,
// with a peer twice, one outside the communicator or a negative Size is
// refused before the collective is entered.
func (c *Comm) AlltoallvSparse(val any, send []Block) (recv []Block, vals []any, err error) {
	for i, b := range send {
		switch {
		case b.Peer < 0 || int(b.Peer) >= c.Size():
			return nil, nil, fmt.Errorf("mpi: AlltoallvSparse: block %d names peer %d of %d ranks", i, b.Peer, c.Size())
		case i > 0 && b.Peer <= send[i-1].Peer:
			return nil, nil, fmt.Errorf("mpi: AlltoallvSparse: block %d names peer %d after peer %d: peers must ascend", i, b.Peer, send[i-1].Peer)
		case b.Size < 0:
			return nil, nil, fmt.Errorf("mpi: AlltoallvSparse: block %d to peer %d has a negative size, %d", i, b.Peer, b.Size)
		}
	}
	w := &meetWait{val: val, send: send}
	m, err := c.collective("alltoallv", meetExchange, w)
	if err != nil {
		return nil, nil, err
	}
	return w.recv, m.vals, nil
}

// Alltoallv is the dense form of AlltoallvSparse over byte buffers: bufs[i]
// is destined to comm rank i, and the result is indexed by source rank, nil
// where nothing arrived. The rank's value is one copy of bufs, so the caller
// may reuse bufs once it returns, and a non-empty buffer travels as a route
// priced at its length; an empty buffer is not sent, which costs what
// sending it would. A buffer over math.MaxInt32 bytes is refused before the
// collective is entered.
func (c *Comm) Alltoallv(bufs [][]byte) ([][]byte, error) {
	n := c.Size()
	if len(bufs) != n {
		return nil, fmt.Errorf("mpi: Alltoallv needs %d buffers, got %d", n, len(bufs))
	}
	held := slices.Clone(bufs)
	send := make([]Block, 0, n)
	for d, b := range held {
		if len(b) > math.MaxInt32 {
			return nil, fmt.Errorf("mpi: Alltoallv: the buffer for rank %d is %d bytes, over the 2 GiB bound", d, len(b))
		}
		if len(b) > 0 {
			send = append(send, Block{Peer: int32(d), Size: int32(len(b))})
		}
	}
	got, vals, err := c.AlltoallvSparse(held, send)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, n)
	for _, b := range got {
		out[b.Peer] = vals[b.Peer].([][]byte)[c.rank]
	}
	return out, nil
}

// arm is the exchange's finish policy: it evaluates the ring schedule for
// every rank at once, as a pure function of entry instants and route
// sizes. With sent[r] the instant rank r's step-s message is delivered and
// end[r] the instant r finishes step s:
//
//	sent_r(s) = end_r(s-1) + TransferCost(Size of r's route to peer r+s, 0 if none)
//	end_r(s)  = max(sent_r(s), sent_{r-s}(s)),   end_r(0) = entry_r
//
// exactly what W-1 blocking send/recv steps per rank would produce, in O(W²)
// integer arithmetic. A rank's routes are read in ring order (peers r+1 ..
// W-1, then 0 .. r-1) through one cursor per rank. It then deals every route
// out of one slice, grouped by destination in ascending source order, and
// lists every rank's value in m.vals. waits is indexed by comm rank.
func (st *commState) arm(m *meet, waits []*meetWait) {
	n := len(waits)
	cost := st.w.Clus.TransferCost
	idle := cost(0)
	end, sent := make([]time.Duration, n), make([]time.Duration, n)
	next := make([]int, n)  // per rank: its cursor into its routes, then per destination: a fill cursor
	off := make([]int, n+1) // per destination: where its routes start in the dealt slice
	for r, w := range waits {
		end[r] = w.entry
		next[r] = sort.Search(len(w.send), func(i int) bool { return int(w.send[i].Peer) > r })
		for _, b := range w.send {
			off[b.Peer+1]++
		}
	}
	for s := 1; s < n; s++ {
		for r, w := range waits {
			d := r + s
			if d >= n {
				if d -= n; d == 0 {
					next[r] = 0 // wrapped past the last peer
				}
			}
			c := idle
			if i := next[r]; i < len(w.send) && int(w.send[i].Peer) == d {
				c = cost(int(w.send[i].Size))
				next[r]++
			}
			sent[r] = end[r] + c
		}
		for r := range end {
			end[r] = max(sent[r], sent[(r-s+n)%n])
		}
	}
	for d := 0; d < n; d++ {
		off[d+1] += off[d]
		next[d] = off[d]
	}
	all := make([]Block, off[n])
	m.vals = make([]any, n)
	for src, w := range waits {
		for _, b := range w.send {
			all[next[b.Peer]] = Block{Peer: int32(src), Size: b.Size}
			next[b.Peer]++
		}
		m.vals[src] = w.val
	}
	for r, w := range waits {
		w.recv = all[off[r]:off[r+1]:off[r+1]]
		w.at = end[r]
	}
}
