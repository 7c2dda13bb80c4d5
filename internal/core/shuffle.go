package core

import (
	"fmt"
	"math"

	"ftmrmpi/internal/kvbuf"
)

// phaseShuffle exchanges the partitioned map output so each partition's
// holder has all its pairs, then checkpoints the received buffers. Only the
// routing of the bundles depends on the execution model (one Alltoallv, or
// tracked point-to-point sends mirrored to the shadows); agreement, merge
// and snapshot are the same for every rank.
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

	var bundles [][]byte
	if r.ftm != nil {
		bundles, err = r.exchangeReplicate()
	} else {
		bundles, err = r.exchangeAlltoallv()
	}
	if err != nil {
		return err
	}

	if err := r.mergeBundles(bundles); err != nil {
		return err
	}
	r.shuffled = true
	// Checkpoint the post-shuffle state of each owned partition (§3.2:
	// tracing send/receive of each buffer culminates in a consistent
	// partition snapshot). A mirroring shadow owns nothing and writes nothing.
	if r.ck.enabled {
		for _, part := range r.ownedParts() {
			kv := r.parts[part]
			var payload []byte
			if kv != nil {
				payload = kv.Bytes()
			}
			r.ck.commit(r.p, partStream(part), frameShuffle, uint32(part), 0, payload)
		}
	}
	r.ck.phaseSync(r.p)
	return r.net(func() error { return r.comm.Barrier() })
}

// mergeBundles rebuilds this rank's partitions from the received bundles,
// from scratch so the exchange is idempotent under recovery re-runs. One walk
// checks every frame and sizes each partition; every payload is then
// validated and copied once, in bundle order, into a buffer that already has
// room for it.
func (r *runner) mergeBundles(bundles [][]byte) error {
	r.parts = make(map[int]*kvbuf.KV)
	r.kmv = make(map[int]*kvbuf.KMV)
	sizes := make(map[int]int)
	var filled []frame // the frames that carry pairs, in arrival order
	for _, b := range bundles {
		for idx, off := 0, 0; off < len(b); idx++ {
			f, n, err := nextFrame(b[off:])
			if err != nil {
				// Shuffle bundles travel over the (fault-free) network; a decode
				// failure here is a framing bug, not a storage fault.
				return fmt.Errorf("core: shuffle bundle: %w", frameErr(idx, off, err))
			}
			off += n
			if f.kind != frameShuffle {
				continue
			}
			part := int(f.a)
			if r.parts[part] == nil {
				r.parts[part] = kvbuf.NewKV()
			}
			if len(f.payload) > 0 {
				sizes[part] += len(f.payload)
				filled = append(filled, f)
			}
		}
	}
	for part, size := range sizes {
		r.parts[part].Grow(size)
	}
	for _, f := range filled {
		if err := r.parts[int(f.a)].AppendBytes(f.payload); err != nil {
			return err
		}
		r.m.ShuffleBytes += int64(len(f.payload))
	}
	return nil
}

// sendBundles prepares this rank's map output for the exchange and returns
// one buffer per communicator rank, bundling the partitions that rank owns
// in ascending order. The map-output log is partitioned once, by a stable
// counting sort straight into the bundles: the bundles are sized first, every
// pair is then copied to its partition's cursor inside its destination's
// bundle, and each frame's header is sealed in place. The bundles share one
// arena, each a capacity-limited sub-slice of it: receivers may keep what
// they are handed, and nothing writes to the arena after this returns.
func (r *runner) sendBundles() ([][]byte, error) {
	// Local pre-reduction (MR-MPI's "compress"): fold each partition's
	// pairs before they travel. Runs at every shuffle (re-)execution;
	// combiners must therefore be idempotent over their own output.
	if r.spec.NewCombiner != nil {
		if err := r.combineLocal(); err != nil {
			return nil, err
		}
	}
	// Offsets into the arena are int32, like every per-partition table here.
	if int64(r.log.Size())+int64(frameHdrLen)*int64(r.nParts) > math.MaxInt32 {
		return nil, fmt.Errorf("core: %d bytes of map output exceed the shuffle's 2 GiB bound", r.log.Size())
	}
	// One pass over the partitions via an inverse owner table — a nested
	// ranks×partitions scan is O(W²) per rank at scale.
	n := r.comm.Size()
	commOf := make([]int32, r.comm.World().Size())
	for i := range commOf {
		commOf[i] = -1
	}
	for d := 0; d < n; d++ {
		commOf[r.comm.WorldRank(d)] = int32(d)
	}
	pieces, of, cur := partitionLog(&r.log, r.nParts) // cur: sizes until the layout makes them cursors
	// Every partition travels as a frame, empty ones included.
	at := make([]int32, n) // per destination: its bundle's size, then a cursor
	for part, owner := range r.partOwner {
		if d := commOf[owner]; d >= 0 {
			at[d] += frameHdrLen + cur[part]
		}
	}
	total := 0
	for _, size := range at {
		total += int(size)
	}
	arena := make([]byte, total)
	bufs := make([][]byte, n)
	off := int32(0)
	for d, size := range at {
		if size > 0 {
			bufs[d] = arena[off : off+size : off+size]
		}
		at[d] = off
		off += size
	}
	// Each partition's payload starts after its header, its bundle's frames
	// in ascending partition order; a partition no rank of the communicator
	// owns is not sent.
	for part, owner := range r.partOwner {
		d := commOf[owner]
		if d < 0 {
			cur[part] = -1
			continue
		}
		size := cur[part]
		cur[part] = at[d] + frameHdrLen
		at[d] = cur[part] + size
	}
	scatterLog(pieces, of, cur, arena)
	// Every cursor now ends its payload; the frames of a bundle lie back to
	// back from its start.
	for d := range at {
		at[d] -= int32(len(bufs[d]))
	}
	for part, owner := range r.partOwner {
		if d := commOf[owner]; d >= 0 {
			sealFrame(arena[at[d]:cur[part]], frameShuffle, uint32(part), 0)
			at[d] = cur[part]
		}
	}
	return bufs, nil
}

// partitionLog is the first pass of the counting sort that partitions the
// map-output log: the log as pieces, each pair's partition in log order, and
// the encoded bytes each partition holds.
func partitionLog(log *kvbuf.Log, nParts int) (pieces [][]byte, of, size []int32) {
	pieces = log.Since(kvbuf.Mark{}, nil)
	of = make([]int32, 0, log.Len())
	size = make([]int32, nParts)
	for _, piece := range pieces {
		for off := 0; off < len(piece); {
			k, _, n := kvbuf.NextPair(piece[off:])
			part := int32(kvbuf.PartitionKey(k, nParts))
			of = append(of, part)
			size[part] += int32(n)
			off += n
		}
	}
	return pieces, of, size
}

// scatterLog is its second pass: every pair of the pieces is copied to its
// partition's cursor in dst, which then advances, so each partition's pairs
// keep their log order. A pair whose partition's cursor is negative is
// skipped.
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

// exchangeAlltoallv routes the bundles with one collective exchange and
// returns what this rank received, in source-rank order.
func (r *runner) exchangeAlltoallv() ([][]byte, error) {
	bufs, err := r.sendBundles()
	if err != nil {
		return nil, err
	}
	var recv [][]byte
	err = r.net(func() error {
		out, e := r.comm.Alltoallv(bufs)
		recv = out
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
	pieces, of, cur := partitionLog(&r.log, r.nParts)
	off := int32(0)
	for part, size := range cur {
		cur[part] = off
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
