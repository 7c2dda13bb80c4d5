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
// holder has all its pairs, then checkpoints the received buffers. Every
// execution model routes the bundles through the same AlltoallvSparse;
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

// mergeBundles rebuilds this rank's partitions from the received bundles,
// from scratch so the exchange is idempotent under recovery re-runs. The
// partitions are the ownership table's — this rank's own, or a mirroring
// shadow's pair's — whether or not any pairs arrived for them. One walk
// checks every frame and sizes each partition; a second walk over the checked
// headers then appends every payload, in bundle order: a payload of at least
// storage.ShareMin bytes as a capped view of the sender's write-once arena,
// a shorter one copied into the one buffer the first walk sized
// (kvbuf.KV.AppendRun, kvbuf.NewKVs).
func (r *runner) mergeBundles(bundles []mpi.Block) error {
	holder := r.myWorld()
	if r.mirroring() {
		holder = r.ftm.pairWorld()
	}
	held := r.partsOf(holder)
	sizes := make([]int, 2*len(held)) // by held's index: all bytes, then short bytes
	for _, b := range bundles {
		for idx, off := 0, 0; off < len(b.Data); idx++ {
			f, n, err := nextFrame(b.Data[off:])
			if err != nil {
				// Shuffle bundles travel over the (fault-free) network; a decode
				// failure here is a framing bug, not a storage fault.
				return fmt.Errorf("core: shuffle bundle: %w", frameErr(idx, off, err))
			}
			if f.kind == frameShuffle {
				i, ok := slices.BinarySearch(held, int(f.a))
				if !ok {
					return fmt.Errorf("core: shuffle bundle: %w", frameErr(idx, off,
						fmt.Errorf("partition %d is not held by world rank %d", f.a, holder)))
				}
				sizes[i] += len(f.payload)
				if len(f.payload) < storage.ShareMin {
					sizes[len(held)+i] += len(f.payload)
				}
			}
			off += n
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
		for off := 0; off < len(b.Data); {
			f, n := checkedFrame(b.Data[off:])
			off += n
			if f.kind != frameShuffle || len(f.payload) == 0 {
				continue
			}
			if err := r.parts[int(f.a)].AppendRun(f.payload); err != nil {
				return err
			}
			r.m.ShuffleBytes += int64(len(f.payload))
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
// by ascending comm rank, each the frames of those partitions in ascending
// partition order. A partition without pairs is not framed, and a rank that
// is sent none gets no block. The map-output log is partitioned once, by a
// stable counting sort straight into the frames: the frames are laid out
// first, every pair is then copied to its partition's cursor inside its
// frame, and each frame's header is sealed in place. The blocks share one
// arena, each a capacity-limited sub-slice of it: receivers may keep what
// they are handed, and nothing writes to the arena after this returns.
func (r *runner) sendBundles() ([]mpi.Block, error) {
	// Local pre-reduction (MR-MPI's "compress"): fold each partition's
	// pairs before they travel. Runs at every shuffle (re-)execution;
	// combiners must therefore be idempotent over their own output.
	if r.spec.NewCombiner != nil {
		if err := r.combineLocal(); err != nil {
			return nil, err
		}
	}
	pieces, of, parts, cur := partitionLog(&r.log, r.nParts, r.job.h.partLabels(r.nParts)) // cur: sizes until the layout makes them cursors
	// The frames to send, in arena order: by destination, then partition. A
	// partition no rank of the communicator owns is not sent.
	frames := make([]sendFrame, 0, len(parts))
	for i, part := range parts {
		if d := r.comm.CommRankOf(r.partOwner.of(int(part))); d >= 0 {
			frames = append(frames, sendFrame{dest: int32(d), label: int32(i)})
		} else {
			cur[i] = -1
		}
	}
	slices.SortFunc(frames, func(a, b sendFrame) int {
		return cmp.Or(cmp.Compare(a.dest, b.dest), cmp.Compare(a.label, b.label))
	})
	// Offsets into the arena are int32, like every per-partition table here;
	// the log holds every payload byte sent.
	if int64(r.log.Size())+int64(frameHdrLen)*int64(len(frames)) > math.MaxInt32 {
		return nil, fmt.Errorf("core: %d bytes of map output exceed the shuffle's 2 GiB bound", r.log.Size())
	}
	// Each partition's payload starts after its header.
	off, blocks := int32(0), 0
	for i, f := range frames {
		if i == 0 || frames[i-1].dest != f.dest {
			blocks++
		}
		size := cur[f.label]
		cur[f.label] = off + frameHdrLen
		off += frameHdrLen + size
	}
	arena := make([]byte, off)
	scatterLog(pieces, of, cur, arena)
	// Every cursor now ends its payload; the frames lie back to back.
	bundles := make([]mpi.Block, 0, blocks)
	start, first := int32(0), int32(0) // the current frame's and block's first byte
	for i, f := range frames {
		if i == 0 || frames[i-1].dest != f.dest {
			bundles = append(bundles, mpi.Block{Peer: int(f.dest)})
			first = start
		}
		end := cur[f.label]
		sealFrame(arena[start:end], frameShuffle, uint32(parts[f.label]), 0)
		bundles[len(bundles)-1].Data = arena[first:end:end]
		start = end
	}
	return bundles, nil
}

// sendFrame is one frame sendBundles lays out: a partition that holds pairs,
// by its label (see partitionLog), and the comm rank that owns it.
type sendFrame struct{ dest, label int32 }

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

// exchange routes the bundles with one collective exchange and returns what
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
// by partition (the shuffle's counting sort, without headers) and replaced by
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
