package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"ftmrmpi/internal/kvbuf"
	"ftmrmpi/internal/mpi"
	"ftmrmpi/internal/storage"
)

// phaseShuffle exchanges the partitioned map output so each partition's
// holder has all its pairs, then checkpoints the received partitions. Every
// execution model routes the outboxes through the same AlltoallvSparse;
// agreement, merge and snapshot are the same for every rank.
func (r *runner) phaseShuffle() error {
	// If every rank restored its partitions from checkpoints (restart after
	// a reduce-phase failure), the exchange can be skipped — agreement by
	// allreduce-min.
	have := int64(1)
	if !r.shuffled {
		have = 0
	}
	all, err := r.allreduce(have, func(a, b int64) int64 { return min(a, b) })
	if err != nil {
		return err
	}
	if all == 1 {
		return nil
	}

	recv, vals, err := r.exchange()
	if err != nil {
		return err
	}

	if err := r.mergeBundles(recv, vals); err != nil {
		return err
	}
	if fn := r.job.h.merged; fn != nil {
		fn(r.myWorld(), r.parts)
	}
	r.shuffled = true
	// Checkpoint the post-shuffle state of each owned partition (§3.2:
	// tracing send/receive of each buffer culminates in a consistent
	// partition snapshot). A mirroring shadow owns nothing and writes nothing.
	if r.ck.enabled {
		var pieces [][]byte
		for _, part := range r.ownedParts() {
			pieces = r.parts[part].Pieces(pieces[:0])
			r.ck.commit(r.p, partStream(part), frameShuffle, uint32(part), 0, pieces...)
		}
	}
	r.ck.phaseSync(r.p)
	return r.net(func() error { return r.comm.Barrier() })
}

// mergeBundles rebuilds this rank's partitions from the routes received and
// the senders' outboxes (vals, by comm rank), from scratch so the exchange is
// idempotent under recovery re-runs. The partitions are the ownership
// table's — this rank's own, or a mirroring shadow's pair's: the holder's —
// whether or not any pairs arrived for them. One walk over the runs each
// route's outbox holds for the holder checks the routing, naming the source
// of a route with no run, of one priced at other than its runs' framed
// length and of a run of a partition not held, and sizes the partitions; a
// second appends every payload, in route order: a payload of at least
// storage.ShareMin bytes as a capped view of the sender's write-once arena, a
// shorter one copied into the one buffer the first walk sized
// (kvbuf.KV.AppendRun, which checks the pairs' framing; kvbuf.NewKVs).
func (r *runner) mergeBundles(recv []mpi.Block, vals []any) error {
	holder := r.myWorld()
	if r.mirroring() {
		holder = r.ftm.pairWorld()
	}
	held, dest := r.partsOf(holder), int32(r.comm.CommRankOf(holder))
	sizes := make([]int, 2*len(held)) // by held's index: all bytes, then short bytes
	for _, b := range recv {
		runs, framed := vals[b.Peer].(*outbox).to(dest), int32(0)
		if len(runs) == 0 {
			return fmt.Errorf("core: shuffle block from comm rank %d: its outbox holds no run for world rank %d", b.Peer, holder)
		}
		for _, run := range runs {
			i, ok := slices.BinarySearch(held, int(run.part))
			if !ok {
				return fmt.Errorf("core: shuffle block from comm rank %d: partition %d is not held by world rank %d", b.Peer, run.part, holder)
			}
			n := int(run.end - run.off)
			sizes[i] += n
			if n < storage.ShareMin {
				sizes[len(held)+i] += n
			}
			framed += frameHdrLen + run.end - run.off
		}
		if framed != b.Size {
			return fmt.Errorf("core: shuffle block from comm rank %d is priced at %d bytes, but its runs frame to %d", b.Peer, b.Size, framed)
		}
	}
	kvs, err := mergedParts(held, sizes[:len(held)], sizes[len(held):])
	if err != nil {
		return err
	}
	r.parts = make(map[int]*kvbuf.KV, len(held))
	r.kmv = make(map[int]*kvbuf.KMV)
	for i, part := range held {
		r.parts[part] = &kvs[i]
	}
	for _, b := range recv {
		box := vals[b.Peer].(*outbox)
		for _, run := range box.to(dest) {
			payload := box.arena[run.off:run.end:run.end]
			if err := r.parts[int(run.part)].AppendRun(payload); err != nil {
				return fmt.Errorf("core: shuffle block from comm rank %d, partition %d: %w", b.Peer, run.part, err)
			}
			r.m.ShuffleBytes += int64(len(payload))
		}
	}
	return nil
}

// mergedParts is the merge's sizing step: the empty partitions, the i-th with
// room for short[i] bytes of short payloads, once every held partition is
// known to fit the int32 offsets a KMV indexes it with (sizes[i] bytes in
// all).
func mergedParts(held, sizes, short []int) ([]kvbuf.KV, error) {
	for i, n := range sizes {
		if n > math.MaxInt32 {
			return nil, fmt.Errorf("core: partition %d receives %d bytes of shuffle data, over the 2 GiB bound", held[i], n)
		}
	}
	return kvbuf.NewKVs(short), nil
}

// sendBundles prepares this rank's map output for the exchange: its outbox,
// and one route per communicator rank that owns a partition holding pairs
// from this rank, by ascending comm rank. A route is priced at the length of
// the frameShuffle frames that would carry its destination's runs:
// frameHdrLen plus the payload per run. A partition without pairs has no run,
// and a rank that is sent none gets no route. The map-output log is
// partitioned once, by a stable counting sort straight into the outbox's
// arena: every run's payload is laid out first, back to back by destination
// then partition, and every pair is then copied to its partition's cursor.
// Receivers may keep views of the arena, and nothing writes to the outbox
// after this returns.
func (r *runner) sendBundles() (*outbox, []mpi.Block, error) {
	// Local pre-reduction (MR-MPI's "compress"): fold each partition's
	// pairs before they travel. Runs at every shuffle (re-)execution;
	// combiners must therefore be idempotent over their own output.
	if r.spec.NewCombiner != nil {
		if err := r.combineLocal(); err != nil {
			return nil, nil, err
		}
	}
	// Offsets into the arena and route sizes are int32: the log holds every
	// payload byte sent, and a route adds a frame header per partition.
	if r.log.Size()+frameHdrLen*r.nParts > math.MaxInt32 {
		return nil, nil, fmt.Errorf("core: %d bytes of map output exceed the shuffle's 2 GiB bound", r.log.Size())
	}
	pieces, of, parts, cur := partitionLog(&r.log, r.nParts, r.job.h.partLabels(r.nParts)) // cur: sizes until the layout makes them cursors
	// The runs to send, in arena order: by destination, then partition. A
	// partition no rank of the communicator owns is not sent.
	runs, total := make([]partRun, 0, len(parts)), int32(0)
	for i, part := range parts {
		if d := r.comm.CommRankOf(r.partOwner.of(int(part))); d >= 0 {
			runs = append(runs, partRun{part: part, dest: int32(d)})
			total += cur[i]
		} else {
			cur[i] = -1
		}
	}
	slices.SortFunc(runs, func(a, b partRun) int {
		return cmp.Or(cmp.Compare(a.dest, b.dest), cmp.Compare(a.part, b.part))
	})
	box, off, send := &outbox{arena: make([]byte, total), runs: runs}, int32(0), make([]mpi.Block, 0, len(runs))
	for i := range runs {
		label, _ := slices.BinarySearch(parts, runs[i].part)
		runs[i].off, runs[i].end = off, off+cur[label]
		cur[label], off = off, runs[i].end
		if i == 0 || runs[i-1].dest != runs[i].dest {
			send = append(send, mpi.Block{Peer: runs[i].dest})
		}
		send[len(send)-1].Size += frameHdrLen + runs[i].end - runs[i].off
	}
	scatterLog(pieces, of, cur, box.arena)
	return box, send, nil
}

// outbox is what a rank hands the shuffle's exchange: its map output,
// partitioned into one arena, and the runs that slice it, by destination then
// partition. Every receiver reads it, and none writes it.
type outbox struct {
	arena []byte
	runs  []partRun
}

// partRun is one partition's pairs in an outbox, arena[off:end] — what the
// partition's frameShuffle frame carries after its header — and the comm
// rank of the partition's owner, its destination.
type partRun struct{ part, dest, off, end int32 }

// to returns the outbox's runs bound for comm rank dest, by ascending
// partition.
func (o *outbox) to(dest int32) []partRun {
	i, _ := slices.BinarySearchFunc(o.runs, dest, func(run partRun, d int32) int { return cmp.Compare(run.dest, d) })
	j := i
	for j < len(o.runs) && o.runs[j].dest == dest {
		j++
	}
	return o.runs[i:j:j]
}

// partitionLog is the first pass of the counting sort that partitions the
// map-output log over nParts partitions. It returns the log as pieces, the
// partitions the log touches, ascending, and, by label (a touched partition's
// index in parts), each pair's partition in log order and the encoded bytes
// each partition holds: what it allocates is sized by the pairs and the
// partitions touched, not by nParts. scratch is 2·nParts entries whose first
// nParts are zero, and are left so; parts lies in the rest, valid until the
// next call.
func partitionLog(log *kvbuf.Log, nParts int, scratch []int32) (pieces [][]byte, of, parts, size []int32) {
	pieces = log.Since(kvbuf.Mark{}, nil)
	of = make([]int32, 0, log.Len())
	// seen holds each touched partition's bytes (a pair is never empty), then
	// its label.
	seen, parts := scratch[:nParts], scratch[nParts:nParts]
	for _, piece := range pieces {
		for off := 0; off < len(piece); {
			k, _, n := kvbuf.NextPair(piece[off:])
			part := int32(kvbuf.PartitionKey(k, nParts))
			if seen[part] == 0 {
				parts = append(parts, part)
			}
			of = append(of, part)
			seen[part] += int32(n)
			off += n
		}
	}
	slices.Sort(parts)
	size = make([]int32, len(parts))
	for i, part := range parts {
		size[i], seen[part] = seen[part], int32(i)
	}
	for i, part := range of {
		of[i] = seen[part]
	}
	for _, part := range parts {
		seen[part] = 0
	}
	return pieces, of, parts, size
}

// scatterLog is its second pass: every pair of the pieces is copied to its
// partition's cursor in dst (cur, by label), which then advances, so each
// partition's pairs keep their log order. A pair whose partition's cursor is
// negative is skipped.
func scatterLog(pieces [][]byte, of, cur []int32, dst []byte) {
	i := 0
	for _, piece := range pieces {
		for off := 0; off < len(piece); i++ {
			_, _, n := kvbuf.NextPair(piece[off:])
			if c := cur[of[i]]; c >= 0 {
				copy(dst[c:], piece[off:off+n])
				cur[of[i]] = c + int32(n)
			}
			off += n
		}
	}
}

// exchange hands this rank's outbox to one collective exchange, routed to
// the ranks its runs are bound for, and returns the routes this rank
// received, in source-rank order, and every rank's outbox by comm rank. Under
// the replication model a primary's routes also go to the shadows of the
// slots they are bound for (withShadowCopies), and a mirroring shadow, which
// owns no map output of record, sends nothing: it receives what its pair
// receives.
func (r *runner) exchange() (recv []mpi.Block, vals []any, err error) {
	var box *outbox
	var send []mpi.Block
	if !r.mirroring() {
		if box, send, err = r.sendBundles(); err != nil {
			return nil, nil, err
		}
		send = r.withShadowCopies(send)
	}
	err = r.net(func() (e error) {
		recv, vals, e = r.comm.AlltoallvSparse(box, send)
		return e
	})
	return recv, vals, err
}

// combineLocal applies the user combiner to every partition of this rank's
// map output, charging grouping I/O and per-group compute. The log is sorted
// by partition (the shuffle's counting sort) and replaced by
// the combined pairs, partition by partition, so a re-executed shuffle
// resends combined data.
func (r *runner) combineLocal() error {
	pieces, of, _, cur := partitionLog(&r.log, r.nParts, r.job.h.partLabels(r.nParts))
	off := int32(0)
	for i, size := range cur {
		cur[i] = off
		off += size
	}
	sorted := make([]byte, off)
	scatterLog(pieces, of, cur, sorted)

	comb := r.spec.NewCombiner()
	ctx := &TaskContext{proc: r.p, run: r}
	scratch := r.scratch()
	var cpuAcc float64
	var out kvbuf.Log
	start := int32(0)
	for _, end := range cur {
		payload := sorted[start:end:end]
		start = end
		if len(payload) == 0 {
			continue
		}
		kv, err := kvbuf.FromBytes(payload)
		if err != nil {
			return err
		}
		m, st := kvbuf.ConvertTwoPass(kv)
		r.m.IOWait += scratch.Charge(r.p, st.ReadOps+st.WriteOps, st.Total())
		var cerr error
		m.ForEach(func(key []byte, vals [][]byte) {
			if cerr != nil {
				return
			}
			v, err := comb.Combine(ctx, key, vals)
			if err != nil {
				cerr = err
				return
			}
			out.Add(key, v)
			cpuAcc += comb.Cost(key, vals)
		})
		if cerr != nil {
			return cerr
		}
	}
	r.log = out
	r.compute(cpuAcc)
	return nil
}
