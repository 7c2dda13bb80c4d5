package core

import (
	"testing"
	"time"

	"ftmrmpi/internal/vtime"
)

// --- WAL-style quarantine of torn / corrupted checkpoint streams ----------

func TestCkptReaderQuarantinesTornTail(t *testing.T) {
	clus := ckptCluster()
	m := newRankMetrics(0)
	var stream []byte
	for i := 0; i < 3; i++ {
		stream = encodeFrame(stream, frameMapDelta, uint32(i), uint32(i), []byte("payload"))
	}
	valid := len(stream)
	// Torn tail: a fourth frame cut mid-header.
	torn := encodeFrame(nil, frameTaskDone, 9, 9, []byte("tail"))
	stream = append(stream, torn[:frameHdrLen-5]...)
	path := ckptPath("job", "map/t000001")
	clus.FS.Write("pfs:"+path, stream)

	var frames []frame
	clus.Sim.Spawn("main", func(p *vtime.Proc) {
		rd := testStore(clus, 0, LocDirectPFS)
		rd.m = m
		frames = rd.load(p, "map/t000001")
	})
	clus.Sim.Run()
	if len(frames) != 3 {
		t.Fatalf("replayed %d frames, want 3", len(frames))
	}
	if got := clus.PFS.Size(path); got != valid {
		t.Fatalf("master stream is %d bytes after quarantine, want %d", got, valid)
	}
	if m.Counters["ckpt_corrupt"] != 1 {
		t.Fatalf("ckpt_corrupt = %d, want 1", m.Counters["ckpt_corrupt"])
	}
	// A second load sees a clean stream: no further quarantine.
	clus.Sim.Spawn("again", func(p *vtime.Proc) {
		rd := testStore(clus, 0, LocDirectPFS)
		rd.m = m
		frames = rd.load(p, "map/t000001")
	})
	clus.Sim.Run()
	if len(frames) != 3 || m.Counters["ckpt_corrupt"] != 1 {
		t.Fatalf("reload: %d frames, corrupt counter %d", len(frames), m.Counters["ckpt_corrupt"])
	}
}

func TestCkptReaderQuarantinesBitFlip(t *testing.T) {
	clus := ckptCluster()
	m := newRankMetrics(0)
	var stream []byte
	stream = encodeFrame(stream, frameShuffle, 0, 0, []byte("first"))
	valid := len(stream)
	stream = encodeFrame(stream, frameShuffle, 1, 0, []byte("second"))
	stream = encodeFrame(stream, frameReduce, 1, 5, make([]byte, 8))
	// Flip one bit inside the second frame's payload: CRC must reject it and
	// the quarantine must drop everything from that frame on.
	stream[valid+frameHdrLen] ^= 0x04
	path := ckptPath("job", "part/p000001")
	clus.FS.Write("pfs:"+path, stream)

	var frames []frame
	clus.Sim.Spawn("main", func(p *vtime.Proc) {
		rd := testStore(clus, 0, LocDirectPFS)
		rd.m = m
		frames = rd.load(p, "part/p000001")
	})
	clus.Sim.Run()
	if len(frames) != 1 || string(frames[0].payload) != "first" {
		t.Fatalf("replayed %d frames, want exactly the valid prefix", len(frames))
	}
	if got := clus.PFS.Size(path); got != valid {
		t.Fatalf("master stream is %d bytes, want %d", got, valid)
	}
}

// --- replica fallback: corrupt durable copy never costs re-execution ------

func TestCorruptStreamServedFromReplica(t *testing.T) {
	clus := ckptCluster()
	m := newRankMetrics(0)
	var stream []byte
	stream = encodeFrame(stream, frameShuffle, 0, 0, []byte("first"))
	stream = encodeFrame(stream, frameShuffle, 1, 0, []byte("second"))
	// The durable copy is corrupted in its very first frame: its valid
	// prefix is empty, so the PFS alone would quarantine everything and
	// force full re-execution.
	bad := append([]byte(nil), stream...)
	bad[frameHdrLen] ^= 0x01
	path := ckptPath("job", "part/p000001")
	clus.FS.Write("pfs:"+path, bad)

	// A peer pushed the clean frames here before the writer died.
	rs := newReplicaStore()
	rs.receive(&replicaPush{stream: "part/p000001", data: stream})

	var frames []frame
	clus.Sim.Spawn("main", func(p *vtime.Proc) {
		rd := testStore(clus, 0, LocDirectPFS)
		rd.m, rd.rep = m, &replicator{store: rs}
		frames = rd.load(p, "part/p000001")
	})
	clus.Sim.Run()
	if len(frames) != 2 || string(frames[0].payload) != "first" || string(frames[1].payload) != "second" {
		t.Fatalf("replayed %d frames, want both clean frames from the replica", len(frames))
	}
	// The replica won the failover chain, so the corrupt durable stream was
	// never read: no quarantine, no data loss.
	if m.Counters["ckpt_corrupt"] != 0 {
		t.Fatalf("ckpt_corrupt = %d, want 0 (replica should preempt quarantine)", m.Counters["ckpt_corrupt"])
	}
	if m.RecoveredFrames != 2 {
		t.Fatalf("RecoveredFrames = %d, want 2", m.RecoveredFrames)
	}
	// The reader now owns the stream: the replica was adopted as its mirror.
	if d, own := rs.lookup("part/p000001"); !own || len(d) != len(stream) {
		t.Fatalf("stream not adopted into the reader's mirror (own=%v len=%d)", own, len(d))
	}
}

// --- end-to-end: corrupted checkpoints still yield a correct job ----------

func TestRestartWithCorruptedCheckpointsCompletes(t *testing.T) {
	clus := testCluster(4, 2)
	name := "corrupt-ckpt"
	expect := genInput(clus, "in/"+name, 16, 60, 31)
	spec := wcSpec(name, 8, ModelCheckpointRestart)

	h := RunSingle(clus, spec)
	killDuring(h, 5, PhaseReduce, time.Millisecond)
	clus.Sim.Run()
	if !h.Result().Aborted {
		t.Fatal("first attempt should have aborted")
	}

	// Between the crash and the restart, damage the durable checkpoints the
	// way real storage does: tear one partition stream's tail, flip a bit in
	// another, and overwrite a map stream with garbage.
	parts := clus.FS.List("pfs:ckpt/" + name + "/part/")
	if len(parts) < 2 {
		t.Fatalf("only %d partition streams on the PFS", len(parts))
	}
	d0, _ := clus.FS.Read(parts[0])
	if len(d0) < 4 {
		t.Fatalf("stream %s too small to tear", parts[0])
	}
	clus.FS.Write(parts[0], d0[:len(d0)-3])
	d1, _ := clus.FS.Read(parts[1])
	d1[len(d1)/2] ^= 0x10
	clus.FS.Write(parts[1], d1)
	maps := clus.FS.List("pfs:ckpt/" + name + "/map/")
	if len(maps) == 0 {
		t.Fatal("no map streams on the PFS")
	}
	clus.FS.Write(maps[0], []byte("\x00garbage that is definitely not a frame"))

	spec.Resume = true
	h2 := RunSingle(clus, spec)
	clus.Sim.Run()
	if h2.Result().Aborted {
		t.Fatal("restart aborted")
	}
	checkCounts(t, readOutput(t, clus, name, 8), expect, "corrupt-ckpt")

	corrupt := int64(0)
	for _, m := range h2.Result().Ranks {
		if m != nil {
			corrupt += m.Counters["ckpt_corrupt"]
		}
	}
	if corrupt == 0 {
		t.Error("no quarantine recorded despite corrupted streams")
	}
	if st := clus.Sim.Stranded(); len(st) != 0 {
		t.Fatalf("stranded: %v", st)
	}
}
