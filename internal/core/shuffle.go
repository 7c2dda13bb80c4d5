package core

import (
	"fmt"
	"sort"

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

	// Merge received bundles; rebuild the partitions from scratch so the
	// exchange is idempotent under recovery re-runs.
	r.parts = make(map[int]*kvbuf.KV)
	r.kmv = make(map[int]*kvbuf.KMV)
	for _, b := range bundles {
		fs, err := decodeFrames(b)
		if err != nil {
			// Shuffle bundles travel over the (fault-free) network; a decode
			// failure here is a framing bug, not a storage fault.
			return fmt.Errorf("core: shuffle bundle: %w", err)
		}
		for _, f := range fs {
			if f.kind != frameShuffle {
				continue
			}
			part := int(f.a)
			dst := r.parts[part]
			if dst == nil {
				dst = kvbuf.NewKV()
				r.parts[part] = dst
			}
			if len(f.payload) > 0 {
				kv, err := kvbuf.FromBytes(f.payload)
				if err != nil {
					return err
				}
				dst.Append(kv)
				r.m.ShuffleBytes += int64(kv.Size())
			}
		}
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
			fr := encodeFrame(nil, frameShuffle, uint32(part), 0, payload)
			r.ck.write(r.p, partStream(part), fr, 1)
		}
	}
	r.ck.phaseSync(r.p)
	return r.net(func() error { return r.comm.Barrier() })
}

// sendBundles prepares this rank's map output for the exchange and returns
// one buffer per communicator rank, bundling the partitions that rank owns
// in ascending order.
func (r *runner) sendBundles() ([][]byte, error) {
	// Local pre-reduction (MR-MPI's "compress"): fold each partition's
	// pairs before they travel. Runs at every shuffle (re-)execution;
	// combiners must therefore be idempotent over their own output.
	if r.spec.NewCombiner != nil {
		if err := r.combineLocal(); err != nil {
			return nil, err
		}
	}
	// One pass over the partitions via an inverse owner map — a nested
	// ranks×partitions scan is O(W²) per rank at scale.
	n := r.comm.Size()
	bufs := make([][]byte, n)
	commOf := make(map[int]int, n)
	for d := 0; d < n; d++ {
		commOf[r.comm.WorldRank(d)] = d
	}
	for part := 0; part < r.nParts; part++ {
		d, ok := commOf[r.partOwner[part]]
		if !ok {
			continue
		}
		kv := r.mapOut[part]
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
	parts := make([]int, 0, len(r.mapOut))
	for part := range r.mapOut {
		parts = append(parts, part)
	}
	sort.Ints(parts)
	var cpuAcc float64
	for _, part := range parts {
		kv := r.mapOut[part]
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
