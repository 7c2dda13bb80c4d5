package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/kvbuf"
	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/obs"
	"ftmrmpi/internal/storage"
	"ftmrmpi/internal/vtime"
)

func ckptCluster() *cluster.Cluster {
	cfg := cluster.Default()
	cfg.Nodes = 1
	cfg.PPN = 2
	return cluster.New(cfg)
}

// testStore is the checkpoint store of one rank on clus for job "job", its
// frames going to loc: with LocLocalCopier its copier thread is running.
func testStore(clus *cluster.Cluster, rank int, loc Location) *ckptStore {
	spec := Spec{JobID: "job", Model: ModelDetectResumeWC, CkptLocation: loc}
	return newCkptStore(clus, rank, spec, newRankMetrics(rank), &obs.Handle{})
}

// encodeFrame appends a frame's wire form to dst, its payload the
// concatenation of the pieces given: the test oracle for what commit writes
// as [header, payload...].
func encodeFrame(dst []byte, kind byte, a, b uint32, payload ...[]byte) []byte {
	var hdr [frameHdrLen]byte
	putFrameHeader(hdr[:], kind, a, b, payload...)
	dst = append(dst, hdr[:]...)
	for _, p := range payload {
		dst = append(dst, p...)
	}
	return dst
}

// mustPeek returns a file's bytes or nil (test helper).
func mustPeek(t *storage.Tier, path string) []byte {
	data, err := t.Peek(path)
	if err != nil {
		return nil
	}
	return data
}

func TestCopierDrainsLocalToPFS(t *testing.T) {
	clus := ckptCluster()
	local := clus.LocalOf(0)
	s := testStore(clus, 0, LocLocalCopier)
	clus.Sim.Spawn("main", func(p *vtime.Proc) {
		for i := 0; i < 5; i++ {
			fr := encodeFrame(nil, frameMapDelta, uint32(i), 10, []byte("payload"))
			s.write(p, "map/t000001", fr)
		}
		s.phaseSync(p)
		s.stop()
	})
	clus.Sim.Run()
	path := ckptPath("job", "map/t000001")
	if !clus.PFS.Exists(path) {
		t.Fatal("stream never reached the PFS")
	}
	if clus.PFS.Size(path) != local.Size(path) {
		t.Fatalf("PFS copy incomplete: %d vs %d", clus.PFS.Size(path), local.Size(path))
	}
	if got := countFrames(mustPeek(clus.PFS, path)); got != 5 {
		t.Fatalf("%d frames on PFS, want 5", got)
	}
	if s.m.CkptFrames != 5 {
		t.Fatalf("CkptFrames = %d", s.m.CkptFrames)
	}
	if st := clus.Sim.Stranded(); len(st) != 0 {
		t.Fatalf("stranded: %v", st)
	}
}

func TestCopierLossOnKill(t *testing.T) {
	// Frames written just before the process dies may not have been drained:
	// the PFS copy must be a frame-aligned prefix, and local data is lost.
	clus := ckptCluster()
	local := clus.LocalOf(0)
	s := testStore(clus, 0, LocLocalCopier)
	proc := clus.Sim.Spawn("main", func(p *vtime.Proc) {
		for i := 0; i < 100; i++ {
			fr := encodeFrame(nil, frameMapDelta, uint32(i), uint32(i), make([]byte, 4096))
			s.write(p, "map/t000002", fr)
			p.Sleep(time.Microsecond)
		}
		s.phaseSync(p)
	})
	proc.OnKill(func() { clus.Sim.Kill(s.proc) })
	clus.Sim.After(150*time.Microsecond, func() { clus.Sim.Kill(proc) })
	clus.Sim.Run()
	path := ckptPath("job", "map/t000002")
	pfsFrames := countFrames(mustPeek(clus.PFS, path))
	localFrames := countFrames(mustPeek(local, path))
	if pfsFrames > localFrames {
		t.Fatalf("PFS has more frames (%d) than were written locally (%d)", pfsFrames, localFrames)
	}
	if localFrames >= 100 {
		t.Fatalf("process wrote all %d frames despite being killed", localFrames)
	}
	if st := clus.Sim.Stranded(); len(st) != 0 {
		t.Fatalf("stranded: %v", st)
	}
}

func TestCkptWriterDirectPFS(t *testing.T) {
	clus := ckptCluster()
	s := testStore(clus, 0, LocDirectPFS)
	clus.Sim.Spawn("main", func(p *vtime.Proc) {
		fr := encodeFrame(nil, frameShuffle, 3, 0, []byte("data"))
		s.write(p, partStream(3), fr)
	})
	clus.Sim.Run()
	if !clus.PFS.Exists(ckptPath("job", partStream(3))) {
		t.Fatal("direct-PFS write missing")
	}
}

// TestCkptReaderPrefetchStages: a prefetched replay, charged as one bulk PFS
// read staged on the local disk, replays the bytes the bulk read returned:
// the frames a direct replay gives, and no file left on the local disk.
func TestCkptReaderPrefetchStages(t *testing.T) {
	clus := ckptCluster()
	// Put a stream on the PFS only.
	var frames []byte
	for i := 0; i < 8; i++ {
		frames = encodeFrame(frames, frameMapDelta, 1, uint32(i), []byte("x"))
	}
	clus.FS.Write("pfs:"+ckptPath("job", "map/t000003"), frames)

	var direct, prefetched []frame
	clus.Sim.Spawn("main", func(p *vtime.Proc) {
		direct = testStore(clus, 0, LocDirectPFS).load(p, "map/t000003")
		s := testStore(clus, 0, LocDirectPFS)
		s.prefetch = true
		prefetched = s.load(p, "map/t000003")
	})
	clus.Sim.Run()
	if len(direct) != 8 || !reflect.DeepEqual(direct, prefetched) {
		t.Fatalf("direct replay gave %d frames, prefetched %d, or they differ", len(direct), len(prefetched))
	}
	if n := len(clus.LocalOf(0).List("")); n != 0 {
		t.Fatalf("prefetch left %d files on the local disk", n)
	}
}

func TestCkptWriterDisabledWritesNothing(t *testing.T) {
	clus := ckptCluster()
	s := testStore(clus, 0, LocDirectPFS)
	s.enabled = false
	clus.Sim.Spawn("main", func(p *vtime.Proc) {
		s.write(p, "map/t000009", []byte("frame"))
	})
	clus.Sim.Run()
	if clus.PFS.Exists(ckptPath("job", "map/t000009")) {
		t.Fatal("disabled store wrote data")
	}
	if s.m.CkptFrames != 0 {
		t.Fatal("disabled store counted frames")
	}
}

// framePayloads returns n distinct payloads of size bytes each.
func framePayloads(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		for j := range out[i] {
			out[i][j] = byte(i + j)
		}
	}
	return out
}

// commitAndDrain commits one frame per payload, frame i carrying payloads[i],
// to one stream through the copier, with a phaseSync (a forced drain) every
// len(payloads)/syncs commits, and returns the local and the PFS copy of the
// stream plus the number of syncs that found the PFS copy longer than the
// sync before. With failOne, the third of those drains runs inside a PFS
// outage window: its append is refused on every attempt, the copier gives the
// delta up, and a later drain has to ship it whole.
func commitAndDrain(tb testing.TB, payloads [][]byte, syncs int, failOne bool) (local, pfs []byte, advanced int) {
	clus := ckptCluster()
	disk := clus.LocalOf(0)
	path := ckptPath("job", "map/t000007")
	w := testStore(clus, 0, LocLocalCopier)
	nFrames := len(payloads)
	clus.Sim.Spawn("main", func(p *vtime.Proc) {
		for i, sync := 0, 0; i < nFrames; i++ {
			w.commit(p, "map/t000007", frameMapDelta, 7, uint32(i), payloads[i])
			if (i+1)%(nFrames/syncs) != 0 {
				continue
			}
			sync++
			failing := failOne && sync == 3
			if failing {
				p.Sleep(10 * time.Millisecond) // let the copier go idle, so the next drain is the refused one
				clus.PFS.Faults = storage.NewInjector(storage.FaultPolicy{})
				clus.PFS.Faults.AddOutage(storage.OutageWindow{Begin: p.Now(), End: p.Now() + time.Second})
				w.commit(p, "map/t000007", frameTaskDone, 7, uint32(i))
			}
			before := clus.PFS.Size(path)
			w.phaseSync(p)
			switch after := clus.PFS.Size(path); {
			case failing && (after != before || clus.PFS.Faults.Stats.OutageOps != ckptAppendBudget):
				tb.Errorf("refused drain: PFS copy %d -> %d bytes, %d rejected appends (want no advance, %d attempts)",
					before, after, clus.PFS.Faults.Stats.OutageOps, ckptAppendBudget)
			case after > before:
				advanced++
			}
			if failing {
				clus.PFS.AwaitOnline(p)
			}
		}
		w.stop()
	})
	clus.Sim.Run()
	if st := clus.Sim.Stranded(); len(st) != 0 {
		tb.Fatalf("stranded: %v", st)
	}
	return mustPeek(disk, path), mustPeek(clus.PFS, path), advanced
}

// TestPFSStreamHoldsOnlyItsWritersFrames holds the checkpoint invariant of
// DESIGN.md "Fault model": a PFS stream is extended only by frames its current
// writer committed. Store A (rank 0) commits three frames and drains them,
// then commits a fourth and dies before its copier drains it. Store B (rank 1,
// on the same node: the same local disk, so the same local file) commits two
// frames to the stream and drains them. The PFS stream must hold A's three
// drained frames once, then B's two, and the local file B's two alone.
func TestPFSStreamHoldsOnlyItsWritersFrames(t *testing.T) {
	const stream = "map/t000004"
	clus := ckptCluster()
	local, path := clus.LocalOf(0), ckptPath("job", stream)
	if clus.LocalOf(1) != local {
		t.Fatal("ranks 0 and 1 do not share a local disk")
	}
	payload := func(i int) []byte { return []byte(fmt.Sprint("frame ", i)) }
	frames := func(from, to int) []byte {
		var out []byte
		for i := from; i < to; i++ {
			out = encodeFrame(out, frameMapDelta, 4, uint32(i), payload(i))
		}
		return out
	}
	commit := func(p *vtime.Proc, s *ckptStore, from, to int) {
		for i := from; i < to; i++ {
			s.commit(p, stream, frameMapDelta, 4, uint32(i), payload(i))
		}
	}

	a := testStore(clus, 0, LocLocalCopier)
	clus.Sim.Spawn("a", func(p *vtime.Proc) {
		commit(p, a, 0, 3)
		a.phaseSync(p)
		commit(p, a, 3, 4)
		clus.Sim.Kill(a.proc)
	})
	clus.Sim.Run()
	if got := mustPeek(clus.PFS, path); !bytes.Equal(got, frames(0, 3)) {
		t.Fatalf("after A: the PFS stream holds %d bytes, want A's three drained frames (%d)", len(got), len(frames(0, 3)))
	}
	if got := mustPeek(local, path); !bytes.Equal(got, frames(0, 4)) {
		t.Fatalf("after A: the local file holds %d bytes, want A's four frames (%d)", len(got), len(frames(0, 4)))
	}

	b := testStore(clus, 1, LocLocalCopier)
	clus.Sim.Spawn("b", func(p *vtime.Proc) {
		commit(p, b, 10, 12)
		b.phaseSync(p)
		b.stop()
	})
	clus.Sim.Run()
	if got, want := mustPeek(clus.PFS, path), append(frames(0, 3), frames(10, 12)...); !bytes.Equal(got, want) {
		t.Fatalf("the PFS stream holds %d bytes in %d frames, want A's three drained frames then B's two (%d bytes)",
			len(got), countFrames(got), len(want))
	}
	if got := mustPeek(local, path); !bytes.Equal(got, frames(10, 12)) {
		t.Fatalf("the local file holds %d bytes, want B's two frames (%d)", len(got), len(frames(10, 12)))
	}
	if st := clus.Sim.Stranded(); len(st) != 0 {
		t.Fatalf("stranded: %v", st)
	}
}

// TestCopierDrainsOnlyTheSuffix pins the copier's ranged read: over many
// drains of a growing stream — one of them refused by the PFS and retried
// whole by the next — the PFS copy ends byte-identical to the local stream,
// and (the `make alloc-gate` half) the host memory allocated to get a 1 MiB
// stream there in 256 commits is a small multiple of the stream, not of the
// stream times the number of drains. The payloads are built before the
// measurement and are 4 KiB each, so the local file holds them by reference
// (storage.Tier.AppendShared) and the PFS copy shares the local extents: what
// is left is this test reading both copies back (2x) and the headers and
// extent lists (2.1x measured). It was 3.2x while commit copied every frame
// into the local file, 5.2x while every delta was also copied out of the
// local stream and again into the PFS one, and ~128x while the copier
// re-read the whole stream per drain.
func TestCopierDrainsOnlyTheSuffix(t *testing.T) {
	small := framePayloads(40, 100)
	local, pfs, advanced := commitAndDrain(t, small, 8, true)
	if len(local) == 0 || !bytes.Equal(local, pfs) {
		t.Fatalf("PFS copy (%d bytes) differs from the local stream (%d bytes)", len(pfs), len(local))
	}
	if got := countFrames(pfs); got != 41 {
		t.Fatalf("%d frames on PFS, want 41", got)
	}
	if advanced < 5 {
		t.Fatalf("only %d drains advanced the PFS copy, want >= 5", advanced)
	}

	const frames, frameLen, bound = 256, 4096, 3
	payloads := framePayloads(frames, frameLen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	local, pfs, _ = commitAndDrain(t, payloads, frames, false)
	runtime.ReadMemStats(&after)
	var want []byte
	for i, pl := range payloads {
		want = encodeFrame(want, frameMapDelta, 7, uint32(i), pl)
	}
	if !bytes.Equal(local, want) || !bytes.Equal(pfs, want) {
		t.Fatalf("the local (%d bytes) or PFS copy (%d bytes) is not the %d frames as committed (%d bytes)", len(local), len(pfs), frames, len(want))
	}
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(local))
	t.Logf("draining a %d-byte stream in %d commits allocated %.1fx the stream", len(local), frames, ratio)
	if ratio > bound {
		t.Fatalf("draining a %d-byte stream in %d commits allocated %.1fx the stream, bound %dx: the drain copies its deltas again", len(local), frames, ratio, bound)
	}
}

// BenchmarkCopierDrain grows one stream to 1 MiB in 4 KiB commits, each one
// drained to the PFS before the next.
func BenchmarkCopierDrain(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(256 * (4096 + frameHdrLen))
	payloads := framePayloads(256, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commitAndDrain(b, payloads, 256, false)
	}
}

// The restore chain, holder by holder: one stream held as this rank's own
// mirror, as a peer's copy and as a PFS file is read from the first of them
// that exists — labelled replica-local, then replica-peer, then pfs — and
// from nowhere (the caller re-executes) when none is left. holdsSnapshot,
// which decides whether a partition may be adopted, must agree with what
// load then finds on every subset of holders, a PFS file torn after or
// inside its snapshot frame included.
func TestRestoreChainOrder(t *testing.T) {
	const stream = "part/p000001"
	kv := kvbuf.NewKV()
	kv.Add([]byte("k"), []byte("v"))
	snapshot := encodeFrame(nil, frameShuffle, 1, 0, kv.Pieces(nil)...)
	good := encodeFrame(bytes.Clone(snapshot), frameReduce, 1, 3, make([]byte, 8))
	pfsCopies := map[string][]byte{
		"absent":              nil,
		"whole":               good,
		"torn after snapshot": good[:len(good)-5],
		"torn in snapshot":    good[:len(snapshot)-1],
	}
	ramCopies := []string{"off", "empty", "own", "peer"}

	clus := ckptCluster()
	reg := metrics.New(clus.Sim)
	h := obs.New(nil, reg, nil, 0)
	h.BindCore()
	reads := func() map[string]float64 {
		out, snap := make(map[string]float64), reg.Snapshot()
		for _, src := range []string{metrics.SourceReplicaLocal, metrics.SourceReplicaPeer, metrics.SourcePFS} {
			out[src], _ = snap.Series(metrics.MRecoveryReads, src)
		}
		return out
	}
	clus.Sim.Spawn("main", func(p *vtime.Proc) {
		n := 0
		for pfsName, onPFS := range pfsCopies {
			for _, ram := range ramCopies {
				n++
				rd := testStore(clus, 0, LocDirectPFS)
				rd.jobID, rd.obs = fmt.Sprint("job", n), h
				if onPFS != nil {
					clus.FS.Write("pfs:"+ckptPath(rd.jobID, stream), onPFS)
				}
				want := ""
				if onPFS != nil {
					want = metrics.SourcePFS
				}
				if ram != "off" {
					rd.rep = &replicator{store: newReplicaStore()}
				}
				switch ram {
				case "own":
					rd.rep.store.appendOwn(stream, good)
					want = metrics.SourceReplicaLocal
				case "peer":
					rd.rep.store.receive(&replicaPush{full: true, stream: stream, data: good})
					want = metrics.SourceReplicaPeer
				}
				private := slices.ContainsFunc(rd.chain(), holder.private)
				if private != (ram != "off") {
					t.Errorf("RAM %s, PFS %s: a private holder in the chain: %v", ram, pfsName, private)
				}

				held := rd.holdsSnapshot(p, stream)
				before := reads()
				frames := rd.load(p, stream)
				got := ""
				for src, n := range reads() {
					if n != before[src] {
						got += src
					}
				}
				if got != want {
					t.Errorf("RAM %s, PFS %s: load read from %q, want %q", ram, pfsName, got, want)
				}
				if (frames == nil) != (want == "" || pfsName == "torn in snapshot" && want == metrics.SourcePFS) {
					t.Errorf("RAM %s, PFS %s: load returned %d frames", ram, pfsName, len(frames))
				}
				restorable := slices.ContainsFunc(frames, func(f frame) bool { return f.kind == frameShuffle })
				if held != restorable {
					t.Errorf("RAM %s, PFS %s: holdsSnapshot=%v, but load found a snapshot: %v", ram, pfsName, held, restorable)
				}
			}
		}
	})
	clus.Sim.Run()
}

// TestCommittedFramesOutliveTheirSource holds commit's contract: a frame's
// payload goes to the stream by reference, so the file may keep the very
// bytes the map-output log and a partition's KV hold, and those go on
// growing. Two map deltas committed as kvbuf.Log.Since views — one under
// 4 KiB, which the file copies, one over, which it keeps — and a partition
// snapshot committed as a merged KV's pieces — a run held by reference and an
// owned region over 4 KiB with room to spare behind it — followed by a short
// frame, must be found exactly as committed, after the log has taken more
// pairs and the KV more bytes in place, in its room, in every place a frame
// lives: the local file, the PFS file the copier drains it to, the rank's own
// replica mirror and the copy pushed to its partner. The log's and the KV's
// later pairs must be exactly as added: nothing a stream keeps writes into
// its source.
func TestCommittedFramesOutliveTheirSource(t *testing.T) {
	clus := ckptCluster()
	spec := wcSpec("byref", 2, ModelDetectResumeWC).withDefaults()
	spec.ReplicaK = 1
	spec.CkptLocation = LocLocalCopier
	mapS, partS := mapStream(0), partStream(0)
	pair := func(i int) ([]byte, []byte) {
		return []byte(fmt.Sprintf("key-%05d", i)), bytes.Repeat([]byte{byte(i)}, 23)
	}
	encoded := func(from, to int) []byte {
		kv := kvbuf.NewKV()
		for i := from; i < to; i++ {
			kv.Add(pair(i))
		}
		return kvBytes(kv)
	}
	want := map[string][]byte{}
	var logLater, kvLater, kvWant []byte
	var mirrors, pushed [2][]byte
	Launch(clus, 2, func(app *App) {
		r := newRunner(&jobCtx{clus: clus, spec: spec, res: app.h.resultSlot(0, spec), h: app.h}, app.comm, &app.bufs)
		if app.comm.Rank() == 0 {
			var log kvbuf.Log
			commit := func(stream string, kind byte, a, b uint32, payload ...[]byte) {
				want[stream] = encodeFrame(want[stream], kind, a, b, payload...)
				r.ck.commit(r.p, stream, kind, a, b, payload...)
			}
			// A delta under 4 KiB (one piece of the log's first block), then
			// one over it (the rest of that block, a whole block and part of
			// the tail block: pieces either side of 4 KiB).
			for _, n := range [][2]int{{0, 20}, {20, 1000}} {
				m := log.Mark()
				for i := n[0]; i < n[1]; i++ {
					log.Add(pair(i))
				}
				delta := log.Since(m, nil)
				if k := delta[len(delta)-1]; n[1] == 1000 && (len(delta) < 3 || len(k) < 4096) {
					t.Errorf("the long delta is %d pieces, the last %d bytes: want a long piece in the tail block", len(delta), len(k))
					return
				}
				commit(mapS, frameMapDelta, 0, uint32(n[1]), delta...)
			}
			// The snapshot: a 8000-byte run by reference, then two 4000-byte
			// runs copied into an 8000-byte owned region with 400 bytes of
			// room behind it.
			const spare = 400
			kv := &kvbuf.NewKVs([]int{8000 + spare})[0]
			for _, run := range [][]byte{encoded(0, 200), encoded(200, 300), encoded(300, 400)} {
				if err := kv.AppendRun(run); err != nil {
					t.Error(err)
					return
				}
			}
			snap := kv.Pieces(nil)
			if len(snap) != 2 || len(snap[0]) != 8000 || len(snap[1]) != 8000 {
				t.Errorf("the snapshot KV is %d pieces: want a run by reference and an owned region, 8000 bytes each", len(snap))
				return
			}
			commit(partS, frameShuffle, 0, 0, snap...)
			commit(partS, frameReduce, 0, 1, make([]byte, 8))
			// The sources grow: the log into its tail block, the KV into the
			// room behind the snapshot's owned region.
			m := log.Mark()
			for i := 1000; i < 1100; i++ {
				log.Add(pair(i))
			}
			logLater = bytes.Join(log.Since(m, nil), nil)
			for i := 400; i < 400+spare/40; i++ {
				kv.Add(pair(i))
			}
			if grown := kv.Pieces(nil); len(grown) != 2 || &grown[1][0] != &snap[1][0] {
				t.Errorf("the KV moved its owned region instead of growing it in place")
			}
			kvLater, kvWant = kvBytes(kv), encoded(0, 400+spare/40)
			r.ck.phaseSync(r.p)
			mirrors[0], _ = r.rep.store.lookup(mapS)
			mirrors[1], _ = r.rep.store.lookup(partS)
		}
		if err := app.comm.Barrier(); err != nil {
			t.Errorf("barrier: %v", err)
		}
		if app.comm.Rank() == 1 {
			r.rep.drain()
			pushed[0], _ = r.rep.store.lookup(mapS)
			pushed[1], _ = r.rep.store.lookup(partS)
		}
		r.ck.stop()
	})
	clus.Sim.Run()
	if !bytes.Equal(logLater, encoded(1000, 1100)) {
		t.Errorf("the log's pairs added after the commits are not as added")
	}
	if !bytes.Equal(kvLater, kvWant) {
		t.Errorf("the KV's bytes after the snapshot commit are not its pairs as added")
	}
	for i, stream := range []string{mapS, partS} {
		path := ckptPath(spec.JobID, stream)
		for _, held := range []struct {
			where string
			data  []byte
		}{
			{"local file", mustPeek(clus.LocalOf(0), path)},
			{"PFS file", mustPeek(clus.PFS, path)},
			{"own replica mirror", mirrors[i]},
			{"partner's replica", pushed[i]},
		} {
			if !bytes.Equal(held.data, want[stream]) {
				t.Errorf("%s of %s holds %d bytes that are not the frames as committed (%d bytes)", held.where, stream, len(held.data), len(want[stream]))
			}
		}
	}
}
