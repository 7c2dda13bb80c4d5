package core

import (
	"testing"
	"time"

	"ftmrmpi/internal/cluster"
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
	m := newRankMetrics(0)
	local := clus.LocalOf(0)
	clus.Sim.Spawn("main", func(p *vtime.Proc) {
		cp := startCopier(clus.Sim, "cp", "job", local, clus.PFS, clus.CoreOf(0), m, &obs.Handle{})
		w := &ckptWriter{enabled: true, jobID: "job", loc: LocLocalCopier, local: local, pfs: clus.PFS, cp: cp, m: m, obs: &obs.Handle{}}
		for i := 0; i < 5; i++ {
			fr := encodeFrame(nil, frameMapDelta, uint32(i), 10, []byte("payload"))
			w.write(p, "map/t000001", fr, 1)
		}
		w.phaseSync(p)
		cp.stop()
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
	if m.CkptFrames != 5 {
		t.Fatalf("CkptFrames = %d", m.CkptFrames)
	}
	if st := clus.Sim.Stranded(); len(st) != 0 {
		t.Fatalf("stranded: %v", st)
	}
}

func TestCopierLossOnKill(t *testing.T) {
	// Frames written just before the process dies may not have been drained:
	// the PFS copy must be a frame-aligned prefix, and local data is lost.
	clus := ckptCluster()
	m := newRankMetrics(0)
	local := clus.LocalOf(0)
	var proc *vtime.Proc
	proc = clus.Sim.Spawn("main", func(p *vtime.Proc) {
		cp := startCopier(clus.Sim, "cp", "job", local, clus.PFS, clus.CoreOf(0), m, &obs.Handle{})
		p.OnKill(func() { clus.Sim.Kill(cp.proc) })
		w := &ckptWriter{enabled: true, jobID: "job", loc: LocLocalCopier, local: local, pfs: clus.PFS, cp: cp, m: m, obs: &obs.Handle{}}
		for i := 0; i < 100; i++ {
			fr := encodeFrame(nil, frameMapDelta, uint32(i), uint32(i), make([]byte, 4096))
			w.write(p, "map/t000002", fr, 1)
			p.Sleep(time.Microsecond)
		}
		w.phaseSync(p)
	})
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
	m := newRankMetrics(0)
	clus.Sim.Spawn("main", func(p *vtime.Proc) {
		w := &ckptWriter{enabled: true, jobID: "job", loc: LocDirectPFS, pfs: clus.PFS, m: m, obs: &obs.Handle{}}
		fr := encodeFrame(nil, frameShuffle, 3, 0, []byte("data"))
		w.write(p, partStream(3), fr, 1)
	})
	clus.Sim.Run()
	if !clus.PFS.Exists(ckptPath("job", partStream(3))) {
		t.Fatal("direct-PFS write missing")
	}
}

func TestCkptReaderPrefetchStages(t *testing.T) {
	clus := ckptCluster()
	m := newRankMetrics(0)
	local := clus.LocalOf(0)
	// Stage a stream on the PFS only.
	var frames []byte
	for i := 0; i < 8; i++ {
		frames = encodeFrame(frames, frameMapDelta, 1, uint32(i), []byte("x"))
	}
	clus.FS.Write("pfs:"+ckptPath("job", "map/t000003"), frames)

	var direct, staged []frame
	clus.Sim.Spawn("main", func(p *vtime.Proc) {
		rd := &ckptReader{jobID: "job", pfs: clus.PFS, local: local, prefetch: false, m: m, obs: &obs.Handle{}, staged: map[string]bool{}}
		direct = rd.load(p, "map/t000003")
		rd2 := &ckptReader{jobID: "job", pfs: clus.PFS, local: local, prefetch: true, m: m, obs: &obs.Handle{}, staged: map[string]bool{}}
		staged = rd2.load(p, "map/t000003")
		// Second load hits the local staging copy.
		_ = rd2.load(p, "map/t000003")
	})
	clus.Sim.Run()
	if len(direct) != 8 || len(staged) != 8 {
		t.Fatalf("frame counts: direct=%d staged=%d", len(direct), len(staged))
	}
	if !local.Exists("stage/" + ckptPath("job", "map/t000003")) {
		t.Fatal("prefetch did not stage to local disk")
	}
}

func TestCkptWriterDisabledWritesNothing(t *testing.T) {
	clus := ckptCluster()
	m := newRankMetrics(0)
	clus.Sim.Spawn("main", func(p *vtime.Proc) {
		w := &ckptWriter{enabled: false, jobID: "job", pfs: clus.PFS, m: m, obs: &obs.Handle{}}
		w.write(p, "map/t000009", []byte("frame"), 1)
	})
	clus.Sim.Run()
	if clus.PFS.Exists(ckptPath("job", "map/t000009")) {
		t.Fatal("disabled writer wrote data")
	}
	if m.CkptFrames != 0 {
		t.Fatal("disabled writer counted frames")
	}
}
