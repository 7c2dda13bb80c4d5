package core

import (
	"fmt"

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
// in ascending order. The bundles are sized first and encoded into one arena,
// each a capacity-limited sub-slice of it: receivers may keep what they are
// handed, and nothing writes to the arena after this returns.
func (r *runner) sendBundles() ([][]byte, error) {
	// Local pre-reduction (MR-MPI's "compress"): fold each partition's
	// pairs before they travel. Runs at every shuffle (re-)execution;
	// combiners must therefore be idempotent over their own output.
	if r.spec.NewCombiner != nil {
		if err := r.combineLocal(); err != nil {
			return nil, err
		}
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
	// Every partition travels as a frame, empty ones included.
	sizes := make([]int, n)
	for part, kv := range r.mapOut {
		if d := commOf[r.partOwner[part]]; d >= 0 {
			sizes[d] += frameHdrLen
			if kv != nil {
				sizes[d] += kv.Size()
			}
		}
	}
	total := 0
	for _, size := range sizes {
		total += size
	}
	arena := make([]byte, total)
	bufs := make([][]byte, n)
	off := 0
	for d, size := range sizes {
		if size > 0 {
			bufs[d] = arena[off : off : off+size]
			off += size
		}
	}
	for part, kv := range r.mapOut {
		d := commOf[r.partOwner[part]]
		if d < 0 {
			continue
		}
		var payload []byte
		if kv != nil {
			payload = kv.Bytes()
		}
		bufs[d] = encodeFrame(bufs[d], frameShuffle, uint32(part), 0, payload)
	}
	return bufs, nil
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
// map output, charging grouping I/O and per-group compute.
func (r *runner) combineLocal() error {
	comb := r.spec.NewCombiner()
	ctx := &TaskContext{proc: r.p, run: r}
	scratch := r.scratch()
	var cpuAcc float64
	for part, kv := range r.mapOut {
		if kv == nil || kv.Len() == 0 {
			continue
		}
		m, st := kvbuf.ConvertTwoPass(kv)
		r.m.IOWait += scratch.Charge(r.p, st.ReadOps+st.WriteOps, st.Total())
		out := kvbuf.NewKV()
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
		r.mapOut[part] = out
	}
	r.compute(cpuAcc)
	return nil
}
