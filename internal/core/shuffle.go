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
// execution model routes the blocks through the same AlltoallvSparse;
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

	bundles, err := r.exchange()
	if err != nil {
		return err
	}

	if err := r.mergeBundles(bundles); err != nil {
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

// mergeBundles rebuilds this rank's partitions from the received blocks,
// from scratch so the exchange is idempotent under recovery re-runs. The
// partitions are the ownership table's — this rank's own, or a mirroring
// shadow's pair's — whether or not any pairs arrived for them. One walk over
// the blocks' runs checks that each names a held partition and sizes the
// partitions; a second appends every payload, in block order: a payload of at
// least storage.ShareMin bytes as a capped view of the sender's write-once
// arena, a shorter one copied into the one buffer the first walk sized
// (kvbuf.KV.AppendRun, which checks the pairs' framing; kvbuf.NewKVs).
func (r *runner) mergeBundles(bundles []mpi.Block) error {
	holder := r.myWorld()
	if r.mirroring() {
		holder = r.ftm.pairWorld()
	}
	held := r.partsOf(holder)
	sizes := make([]int, 2*len(held)) // by held's index: all bytes, then short bytes
	for _, b := range bundles {
		for _, run := range runsOf(b) {
			i, ok := slices.BinarySearch(held, int(run.part))
			if !ok {
				return fmt.Errorf("core: shuffle block from comm rank %d: partition %d is not held by world rank %d", b.Peer, run.part, holder)
			}
			sizes[i] += len(run.payload)
			if len(run.payload) < storage.ShareMin {
				sizes[len(held)+i] += len(run.payload)
			}
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
	for _, b := range bundles {
		for _, run := range runsOf(b) {
			if err := r.parts[int(run.part)].AppendRun(run.payload); err != nil {
				return fmt.Errorf("core: shuffle block from comm rank %d, partition %d: %w", b.Peer, run.part, err)
			}
			r.m.ShuffleBytes += int64(len(run.payload))
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

// sendBundles prepares this rank's map output for the exchange: one block
// per communicator rank that owns a partition holding pairs from this rank,
// by ascending comm rank. A block's value is the list of those partitions'
// runs (runsOf), by ascending partition, priced at the length of the
// frameShuffle frames that would carry them: frameHdrLen plus the payload per
// run. A partition without pairs has no run, and a rank that is sent none
// gets no block. The map-output log is partitioned once, by a stable counting
// sort straight into one arena: every run's payload is laid out first, back
// to back by destination then partition, and every pair is then copied to its
// partition's cursor. The payloads are capacity-limited sub-slices of the
// arena and the lists windows of one slice: receivers may keep what they are
// handed, and nothing writes to either after this returns.
func (r *runner) sendBundles() ([]mpi.Block, error) {
	// Local pre-reduction (MR-MPI's "compress"): fold each partition's
	// pairs before they travel. Runs at every shuffle (re-)execution;
	// combiners must therefore be idempotent over their own output.
	if r.spec.NewCombiner != nil {
		if err := r.combineLocal(); err != nil {
			return nil, err
		}
	}
	// Offsets into the arena are int32, like every per-partition table here;
	// the log holds every payload byte sent.
	if r.log.Size() > math.MaxInt32 {
		return nil, fmt.Errorf("core: %d bytes of map output exceed the shuffle's 2 GiB bound", r.log.Size())
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
	arena, off, blocks := make([]byte, total), int32(0), 0
	for i := range runs {
		if i == 0 || runs[i-1].dest != runs[i].dest {
			blocks++
		}
		label, _ := slices.BinarySearch(parts, runs[i].part)
		end := off + cur[label]
		runs[i].payload = arena[off:end:end]
		cur[label], off = off, end
	}
	scatterLog(pieces, of, cur, arena)
	lists, bundles := make([][]partRun, 0, blocks), make([]mpi.Block, 0, blocks)
	for i := 0; i < len(runs); {
		j, size := i, 0
		for ; j < len(runs) && runs[j].dest == runs[i].dest; j++ {
			size += frameHdrLen + len(runs[j].payload)
		}
		lists = append(lists, runs[i:j:j])
		bundles = append(bundles, mpi.Block{Peer: int(runs[i].dest), Val: &lists[len(lists)-1], Size: size})
		i = j
	}
	return bundles, nil
}

// partRun is one partition's pairs in a shuffle block — what the partition's
// frameShuffle frame carries after its header — and the comm rank of the
// partition's owner, by which sendBundles lays the runs out.
type partRun struct {
	part, dest int32
	payload    []byte
}

// runsOf is a shuffle block's value: its runs, by ascending partition.
func runsOf(b mpi.Block) []partRun { return *b.Val.(*[]partRun) }

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

// exchange routes the blocks with one collective exchange and returns what
// this rank received, in source-rank order. Under the replication model a
// primary's blocks also go to the shadows of the slots they are bound for
// (withShadowCopies), and a mirroring shadow, which owns no map output of
// record, sends nothing: it receives what its pair receives.
func (r *runner) exchange() ([]mpi.Block, error) {
	var send []mpi.Block
	if !r.mirroring() {
		var err error
		if send, err = r.sendBundles(); err != nil {
			return nil, err
		}
		send = r.withShadowCopies(send)
	}
	var recv []mpi.Block
	err := r.net(func() (e error) {
		recv, e = r.comm.AlltoallvSparse(send)
		return e
	})
	return recv, err
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
