package core

import (
	"bytes"

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
// Transport: one eager comm.SendVal per partner on a per-job tag, so replica
// traffic carries real transfer cost, shows up in traces with flow ids, and
// pairs in `ftmr-trace flows` (undrained pushes are legal unmatched sends —
// warnings, not violations). The message is a replicaPush value priced at
// its wire size; it holds a view of the sender's mirror, not a copy, which is
// why a mirror's written bytes are never rewritten (replicaEntry). There is
// no receiver thread (an mpi recv parks the rank's main process), so peers
// bank pushes in their mailboxes and drain them opportunistically: at
// status-gossip drains during normal operation and at the exchange barrier
// inside recovery.
//
// Replica messages are never required for correctness: a dropped push (dead
// receiver, mid-transfer kill) only reduces replica coverage, and the PFS
// chain below remains the durable fallback.

// tagReplicaBase is the base of the per-job replica push tag family
// (replicaTag = tagReplicaBase + jobIdx). Far above tagStatusBase so the
// two per-job families cannot collide for any realistic job count.
const tagReplicaBase = 1 << 20

// replicaPush is one replica push message: frames to append to the stream's
// replica (a delta), or, when full, a snapshot of the whole stream that
// replaces a shorter replica. data is a view of the sender's mirror, capped at
// its length; receivers copy what they keep and write nothing.
type replicaPush struct {
	full   bool
	stream string
	data   []byte
}

// size is the wire size a push is priced at: [kind u8][nameLen u16][name]
// [frame bytes].
func (m *replicaPush) size() int { return 3 + len(m.stream) + len(m.data) }

// replicaEntry is one stream's in-memory replica. Its written bytes are
// never rewritten in place: a push banked in a peer's mailbox may still view
// them (replicaPush), so what replaces data allocates afresh, and what
// shortens it caps it so the next append reallocates.
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
		e.data = bytes.Clone(data)
	}
	e.own = true
}

// receive applies one replica push from a peer.
func (s *replicaStore) receive(m *replicaPush) {
	e := s.entry(m.stream)
	switch {
	case !m.full:
		// Per-stream deltas come from the stream's single writer in send
		// order (MPI pairwise FIFO), so appending keeps a valid frame
		// sequence.
		e.data = append(e.data, m.data...)
	case len(m.data) > len(e.data):
		// Snapshots replace, but never shrink what is already held: a stale
		// exchange snapshot must not discard newer deltas or an own mirror.
		e.data = bytes.Clone(m.data)
		e.own = false
	}
}

// truncate shortens a stream's replica to its first n bytes (tail repair),
// capped so that the next append reallocates.
func (s *replicaStore) truncate(stream string, n int) {
	if e := s.entries[stream]; e != nil && len(e.data) > n {
		e.data = e.data[:n:n]
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
	// Partners receiving the same payload share one message: receivers
	// only read it, so one value serves k eager sends.
	n := len(full)
	var delta, whole *replicaPush
	for _, w := range partners {
		cr := rp.r.comm.CommRankOf(w)
		if cr < 0 {
			continue
		}
		var m *replicaPush
		if cover[w] == before {
			if delta == nil {
				delta = &replicaPush{stream: stream, data: full[before:n:n]}
			}
			m = delta
		} else {
			// New partner (or one that missed pushes): a delta would leave it
			// holding a suffix with no prefix, so send the whole mirror.
			if whole == nil {
				whole = &replicaPush{full: true, stream: stream, data: full[:n:n]}
			}
			m = whole
		}
		_ = rp.r.net(func() error { return rp.r.comm.SendVal(cr, rp.tag, m, m.size()) })
		cover[w] = n
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
		rp.store.receive(m.Val.(*replicaPush))
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
		m := &replicaPush{full: true, stream: s, data: data[:len(data):len(data)]}
		_ = r.net(func() error { return r.comm.SendVal(cr, r.rep.tag, m, m.size()) })
	}
	if err := r.net(func() error { return r.comm.Barrier() }); err != nil {
		return err
	}
	r.rep.drain()
	return nil
}
