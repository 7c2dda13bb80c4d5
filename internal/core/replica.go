package core

import (
	"encoding/binary"

	"ftmrmpi/internal/mpi"
	"ftmrmpi/internal/storage"
)

// Diskless in-memory replicated checkpoint tier (ReStore-style, PAPERS.md).
//
// When Spec.ReplicaK > 0, every checkpoint frame a rank commits is also
// pushed over MPI into the memory of k ring-successor peers
// (storage.ReplicaPartners), and the replica store heads the restore chain
// (ckptStore.chain): a surviving replica holder makes recovery reads come
// from RAM — faster than a PFS restore, and available while a whole storage
// tier is offline (storage.ErrTierOutage).
//
// Transport: ordinary eager comm.Send on a per-job tag, so replica traffic
// carries real transfer cost, shows up in traces with flow ids, and pairs
// in `ftmr-trace flows` (undrained pushes are legal unmatched sends —
// warnings, not violations). There is no receiver thread (an mpi recv parks
// the rank's main process), so peers bank pushes in their mailboxes and
// drain them opportunistically: at status-gossip drains during normal
// operation and at the exchange barrier inside recovery.
//
// Replica messages are never required for correctness: a dropped push (dead
// receiver, mid-transfer kill) only reduces replica coverage, and the PFS
// chain below remains the durable fallback.

// tagReplicaBase is the base of the per-job replica push tag family
// (replicaTag = tagReplicaBase + jobIdx). Far above tagStatusBase so the
// two per-job families cannot collide for any realistic job count.
const tagReplicaBase = 1 << 20

// Replica wire message kinds.
const (
	replicaDelta byte = 1 // append frames to the stream's replica
	replicaFull  byte = 2 // full stream snapshot: replace if longer
)

// encodeReplicaMsg builds one replica push message:
// [kind u8][nameLen u16][name][frame bytes].
func encodeReplicaMsg(kind byte, stream string, data []byte) []byte {
	out := make([]byte, 0, 3+len(stream)+len(data))
	out = append(out, kind, byte(len(stream)), byte(len(stream)>>8))
	out = append(out, stream...)
	return append(out, data...)
}

// decodeReplicaMsg parses a replica push message; ok is false on garbage.
func decodeReplicaMsg(msg []byte) (kind byte, stream string, data []byte, ok bool) {
	if len(msg) < 3 {
		return 0, "", nil, false
	}
	n := int(binary.LittleEndian.Uint16(msg[1:3]))
	if len(msg) < 3+n {
		return 0, "", nil, false
	}
	return msg[0], string(msg[3 : 3+n]), msg[3+n:], true
}

// replicaEntry is one stream's in-memory replica.
type replicaEntry struct {
	data []byte
	// own marks a stream this rank wrote (or adopted) itself — its mirror,
	// as opposed to frames pushed by a peer writer.
	own bool
}

// replicaStore is a rank's in-memory replica tier: stream name → frame
// bytes. It lives in the runner and dies with the rank, which is the whole
// point — only *peer* copies protect anything.
type replicaStore struct {
	entries map[string]*replicaEntry
}

func newReplicaStore() *replicaStore {
	return &replicaStore{entries: make(map[string]*replicaEntry)}
}

// entry returns the stream's replica, creating an empty one on first use.
func (s *replicaStore) entry(stream string) *replicaEntry {
	e := s.entries[stream]
	if e == nil {
		e = &replicaEntry{}
		s.entries[stream] = e
	}
	return e
}

// appendOwn copies a freshly committed frame, given as pieces, onto the
// rank's own mirror of a stream and returns the mirror and the length it had
// before. If the rank held a peer copy of a stream it now writes (it adopted
// the stream without replaying it), the mirror starts from whatever is held,
// so it stays a superset.
func (s *replicaStore) appendOwn(stream string, pieces ...[]byte) (mirror []byte, before int) {
	e := s.entry(stream)
	e.own = true
	before = len(e.data)
	for _, p := range pieces {
		e.data = append(e.data, p...)
	}
	return e.data, before
}

// adopt seeds the rank's own mirror with a stream's validated bytes (the
// rank just replayed the stream and is its writer from now on). A longer
// existing mirror is kept.
func (s *replicaStore) adopt(stream string, data []byte) {
	e := s.entry(stream)
	if len(data) > len(e.data) {
		e.data = append(e.data[:0], data...)
	}
	e.own = true
}

// receive applies one replica push from a peer.
func (s *replicaStore) receive(kind byte, stream string, data []byte) {
	e := s.entry(stream)
	switch kind {
	case replicaDelta:
		// Per-stream deltas come from the stream's single writer in send
		// order (MPI pairwise FIFO), so appending keeps a valid frame
		// sequence.
		e.data = append(e.data, data...)
	case replicaFull:
		// Snapshots replace, but never shrink what is already held: a stale
		// exchange snapshot must not discard newer deltas or an own mirror.
		if len(data) > len(e.data) {
			e.data = append(e.data[:0], data...)
			e.own = false
		}
	}
}

// truncate shortens a stream's replica to its first n bytes (tail repair).
func (s *replicaStore) truncate(stream string, n int) {
	if e := s.entries[stream]; e != nil && len(e.data) > n {
		e.data = e.data[:n]
	}
}

// lookup returns a stream's replica bytes and whether they are the rank's
// own mirror; nil when the stream has no replica here.
func (s *replicaStore) lookup(stream string) (data []byte, own bool) {
	if e := s.entries[stream]; e != nil && len(e.data) > 0 {
		return e.data, e.own
	}
	return nil, false
}

// replicator is the write-side of the replica tier: it mirrors the rank's
// own streams and pushes committed frames to the current ring partners.
type replicator struct {
	r     *runner
	store *replicaStore
	k     int
	tag   int
	// sent tracks, per stream and partner world rank, how many mirror bytes
	// that partner has been sent, so a partner that joined mid-stream (ring
	// re-closed after a shrink) gets a full snapshot instead of a dangling
	// suffix.
	sent map[string]map[int]int
}

func newReplicator(r *runner, k int) *replicator {
	return &replicator{
		r:     r,
		store: newReplicaStore(),
		k:     k,
		tag:   tagReplicaBase + r.job.jobIdx,
		sent:  make(map[string]map[int]int),
	}
}

// push mirrors a freshly committed frame, given as pieces, and sends it to
// the k ring partners: the delta a partner gets is the mirror's new suffix.
// Send errors (revoked communicator, dying peers) are ignored like status
// gossip: replication is best-effort by design.
func (rp *replicator) push(stream string, pieces ...[]byte) {
	// Fold in whatever peers pushed here first: a Shrink discards every
	// message still banked on the old communicator, so draining at each
	// commit bounds what a failure can erase to roughly one checkpoint
	// interval of pushes.
	rp.drain()
	full, before := rp.store.appendOwn(stream, pieces...)
	partners := storage.ReplicaPartners(rp.r.myWorld(), rp.r.comm.Group(), rp.k)
	if len(partners) == 0 {
		return
	}
	cover := rp.sent[stream]
	if cover == nil {
		cover = make(map[int]int)
		rp.sent[stream] = cover
	}
	// Partners receiving the same payload share one encoding: receivers only
	// read the delivered bytes (receive copies on append), so aliasing one
	// buffer across k eager sends is safe and saves k-1 encodings per
	// commit.
	var deltaMsg, fullMsg []byte
	for _, w := range partners {
		cr := rp.r.comm.CommRankOf(w)
		if cr < 0 {
			continue
		}
		var msg []byte
		if cover[w] == before {
			if deltaMsg == nil {
				deltaMsg = encodeReplicaMsg(replicaDelta, stream, full[before:])
			}
			msg = deltaMsg
		} else {
			// New partner (or one that missed pushes): a delta would leave it
			// holding a suffix with no prefix, so send the whole mirror.
			if fullMsg == nil {
				fullMsg = encodeReplicaMsg(replicaFull, stream, full)
			}
			msg = fullMsg
		}
		_ = rp.r.net(func() error { return rp.r.comm.Send(cr, rp.tag, msg) })
		cover[w] = len(full)
	}
}

// drain consumes every banked replica push in the mailbox (a no-op on the
// nil replicator of a job without the replica tier).
func (rp *replicator) drain() {
	if rp == nil {
		return
	}
	for {
		m, ok, err := rp.r.comm.TryRecv(mpi.AnySource, rp.tag)
		if err != nil || !ok {
			return
		}
		if kind, stream, data, ok := decodeReplicaMsg(m.Data); ok {
			rp.store.receive(kind, stream, data)
		}
	}
}

// exchangeReplicas runs the recovery-time replica hand-off: every survivor
// eagerly sends its held copies of the streams whose new owner is another
// rank, then a barrier guarantees all pushes are banked in their
// destination mailboxes (eager sends complete delivery before returning),
// and a drain folds them in. Deterministic and deadlock-free — there is no
// request/reply step to cycle on. ids (ascending) names the partitions or map
// tasks recovery reassigned, stream their checkpoint streams, and owner —
// the rebuilt ownership map, identical on every survivor — their new owners.
func (r *runner) exchangeReplicas(stream func(id int) string, ids []int, owner func(id int) int) error {
	if r.rep == nil {
		return nil
	}
	for _, id := range ids {
		s := stream(id)
		data, _ := r.rep.store.lookup(s)
		o := owner(id)
		cr := r.comm.CommRankOf(o)
		if o == r.myWorld() || data == nil || cr < 0 {
			continue
		}
		msg := encodeReplicaMsg(replicaFull, s, data)
		_ = r.net(func() error { return r.comm.Send(cr, r.rep.tag, msg) })
	}
	if err := r.net(func() error { return r.comm.Barrier() }); err != nil {
		return err
	}
	r.rep.drain()
	return nil
}
