package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/kvbuf"
	"ftmrmpi/internal/mpi"
	"ftmrmpi/internal/obs"
)

// TestMapLogByteIdentity holds the map-output log to the construction it
// replaced, over random emission sequences: restored pairs injected ahead of
// a task's output, record and chunk granularity, W in {1, 7, 64}, with and
// without a combiner. Every frame a task commits must be the frame its
// per-task delta (or whole-task) KV encoded. sendBundles must return one
// block per destination that owns a partition holding pairs, by ascending
// destination, and no other: each the frames of kvbuf.KV.Partition of the
// same pairs — combined per partition when there is a combiner — for the
// partitions its destination owns that hold pairs, and none for an empty
// one. The log holds the combined pairs after it. The shuffle runs three
// times: once, again as a recovery re-runs it, and once more after a re-run
// map task has added pairs to the (combined) log.
func TestMapLogByteIdentity(t *testing.T) {
	for _, w := range []int{1, 7, 64} {
		for _, gran := range []Granularity{GranRecord, GranChunk} {
			for _, combine := range []bool{false, true} {
				t.Run(fmt.Sprintf("W=%d/%s/combiner=%v", w, gran, combine), func(t *testing.T) {
					for seed := int64(1); seed <= 4; seed++ {
						for _, c := range mapLogCase(w, gran, combine, seed) {
							if !bytes.Equal(c.got, c.want) {
								t.Errorf("seed %d: %s: %d bytes, the old construction gives %d", seed, c.what, len(c.got), len(c.want))
							}
						}
					}
				})
			}
		}
	}
}

// mapLogCheck is one thing the log produced and what the old construction
// produces for it.
type mapLogCheck struct {
	what      string
	got, want []byte
}

// mapLogCase runs one random emission sequence on rank 0 of a w-rank world
// and returns every committed stream and every bundle beside its reference.
func mapLogCase(w int, gran Granularity, combine bool, seed int64) []mapLogCheck {
	rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
	randPair := func() (k, v []byte) {
		n := rng.Intn(24)
		switch rng.Intn(400) {
		case 0:
			n = 5000 + rng.Intn(5000) // past the first blocks' room
		case 1:
			n = 300 << 10 // past the largest block
		}
		v = make([]byte, n)
		rng.Read(v)
		return []byte(fmt.Sprintf("k%d", rng.Intn(40))), v
	}
	cfg := cluster.Default()
	cfg.Nodes = (w + cfg.PPN - 1) / cfg.PPN
	clus := cluster.New(cfg)
	var checks []mapLogCheck
	check := func(what string, got, want []byte) {
		checks = append(checks, mapLogCheck{what, got, want})
	}
	mpi.Launch(clus, w, func(c *mpi.Comm) {
		if c.Rank() != 0 {
			return
		}
		owners := make([]int32, w)
		for part := range owners {
			owners[part] = int32(rng.Intn(w))
		}
		r := &runner{job: &jobCtx{clus: clus, h: &Handle{}}, comm: c, p: c.Proc(), m: newRankMetrics(0), obs: &obs.Handle{},
			nParts: w, partOwner: denseOwners(owners...)}
		if combine {
			r.spec.NewCombiner = newConcatCombiner
		}
		r.ck = testStore(clus, 0, LocDirectPFS)
		r.ck.m = r.m

		all := kvbuf.NewKV() // what the log holds, in log order
		for id, tasks := 0, 1+rng.Intn(4); id < tasks; id++ {
			stream := mapStream(id)
			if rng.Intn(2) == 0 {
				restored := kvbuf.NewKV()
				for n := rng.Intn(50); n > 0; n-- {
					restored.Add(randPair())
				}
				r.injectKV(restored)
				restored.ForEach(all.Add)
			}
			em := newEmitter(&r.log)
			delta, task := kvbuf.NewKV(), kvbuf.NewKV()
			var want []byte
			rec := uint32(0)
			commitDelta := func() {
				if em.pending() != (delta.Len() > 0) {
					check(fmt.Sprintf("%s: pending at record %d", stream, rec), []byte(fmt.Sprint(em.pending())), []byte(fmt.Sprint(delta.Len() > 0)))
				}
				if em.pending() {
					r.ck.commit(r.p, stream, frameMapDelta, uint32(id), rec, em.delta()...)
					want = encodeFrame(want, frameMapDelta, uint32(id), rec, delta.Pieces(nil)...)
					delta = kvbuf.NewKV()
				}
			}
			for batches := rng.Intn(8); batches >= 0; batches-- {
				for n := rng.Intn(60); n > 0; n-- {
					k, v := randPair()
					em.Emit(k, v)
					delta.Add(k, v)
					task.Add(k, v)
					all.Add(k, v)
					rec++
				}
				if gran == GranRecord && rng.Intn(2) == 0 {
					commitDelta()
				}
			}
			var payload [][]byte
			if gran == GranChunk {
				payload = em.all()
			} else {
				commitDelta()
			}
			r.ck.commit(r.p, stream, frameTaskDone, uint32(id), rec, payload...)
			if gran == GranChunk {
				want = encodeFrame(want, frameTaskDone, uint32(id), rec, task.Pieces(nil)...)
			} else {
				want = encodeFrame(want, frameTaskDone, uint32(id), rec)
			}
			check(stream, mustPeek(clus.PFS, ckptPath("job", stream)), want)
			check(stream+" bytes emitted", []byte(fmt.Sprint(em.bytes())), []byte(fmt.Sprint(task.Size())))
		}

		parts := all.Partition(w)
		for round := 0; round < 3; round++ {
			if round == 2 {
				em := newEmitter(&r.log)
				for n := rng.Intn(100); n > 0; n-- {
					k, v := randPair()
					em.Emit(k, v)
					parts[kvbuf.PartitionKey(k, w)].Add(k, v)
				}
			}
			if combine {
				for part, kv := range parts {
					parts[part] = concatCombined(kv)
				}
			}
			box, send, err := r.sendBundles()
			if err != nil {
				check(fmt.Sprintf("shuffle %d", round), []byte(err.Error()), nil)
				return
			}
			want, pairs := make([][]byte, w), 0
			for part, owner := range owners {
				if parts[part].Len() > 0 {
					want[owner] = encodeFrame(want[owner], frameShuffle, uint32(part), 0, parts[part].Pieces(nil)...)
				}
				pairs += parts[part].Len()
			}
			check(fmt.Sprintf("shuffle %d, pairs left in the log", round), []byte(fmt.Sprint(r.log.Len())), []byte(fmt.Sprint(pairs)))
			var peers, wantPeers []int
			for d := range want {
				if want[d] != nil {
					wantPeers = append(wantPeers, d)
				}
			}
			for _, b := range send {
				peers = append(peers, int(b.Peer))
				check(fmt.Sprintf("shuffle %d, bundle for rank %d", round, b.Peer), framed(box, b.Peer), want[b.Peer])
				check(fmt.Sprintf("shuffle %d, price of the bundle for rank %d", round, b.Peer), []byte(fmt.Sprint(b.Size)), []byte(fmt.Sprint(len(want[b.Peer]))))
			}
			check(fmt.Sprintf("shuffle %d, destinations", round), []byte(fmt.Sprint(peers)), []byte(fmt.Sprint(wantPeers)))
		}
	})
	clus.Sim.Run()
	return checks
}

// concatCombined is what combineLocal made of one partition's KV with
// concatCombiner: its groups, each folded to one pair.
func concatCombined(kv *kvbuf.KV) *kvbuf.KV {
	out := kvbuf.NewKV()
	if kv.Len() == 0 {
		return out
	}
	m, _ := kvbuf.ConvertTwoPass(kv)
	m.ForEach(func(key []byte, vals [][]byte) { out.Add(key, bytes.Join(vals, nil)) })
	return out
}
