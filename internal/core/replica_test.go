package core

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/metrics"
)

// ------------------------------------------------------ store unit tests --

// encodeReplicaMsg is a replica push's old encoding,
// [kind u8][nameLen u16][name][frame bytes] with kind 1 a delta and 2 a full
// snapshot, kept as the reference of the size a replicaPush is priced at.
func encodeReplicaMsg(m *replicaPush) []byte {
	kind := byte(1)
	if m.full {
		kind = 2
	}
	out := append([]byte{kind}, byte(len(m.stream)), byte(len(m.stream)>>8))
	out = append(out, m.stream...)
	return append(out, m.data...)
}

// TestReplicaPushPricedAtEncodedLength: a push is priced at the length of
// its old encoding.
func TestReplicaPushPricedAtEncodedLength(t *testing.T) {
	for _, m := range []*replicaPush{
		{stream: "map/t000001", data: []byte("frames")},
		{full: true, stream: "part/p000002"},
		{full: true, data: []byte{0, 1, 2}},
		{stream: "part/p000003", data: make([]byte, 1<<16)},
	} {
		if want := len(encodeReplicaMsg(m)); m.size() != want {
			t.Errorf("push to %q of %d bytes priced at %d, encoded in %d", m.stream, len(m.data), m.size(), want)
		}
	}
}

func TestReplicaStoreSemantics(t *testing.T) {
	s := newReplicaStore()
	if d, _ := s.lookup("a"); d != nil {
		t.Fatal("empty store returned data")
	}

	// Own mirror accumulates appends.
	if m, before := s.appendOwn("a", []byte("one")); string(m) != "one" || before != 0 {
		t.Fatalf("appendOwn = %q, %d; want \"one\", 0", m, before)
	}
	if m, before := s.appendOwn("a", []byte("tw"), nil, []byte("o")); string(m) != "onetwo" || before != 3 {
		t.Fatalf("appendOwn = %q, %d; want \"onetwo\", 3", m, before)
	}
	if d, own := s.lookup("a"); !own || string(d) != "onetwo" {
		t.Fatalf("lookup = %q own=%v", d, own)
	}

	// Peer deltas append in FIFO order; a full snapshot replaces only if
	// longer and never demotes a longer copy.
	s.receive(&replicaPush{stream: "b", data: []byte("12")})
	s.receive(&replicaPush{stream: "b", data: []byte("34")})
	if d, own := s.lookup("b"); own || string(d) != "1234" {
		t.Fatalf("peer deltas: %q own=%v", d, own)
	}
	s.receive(&replicaPush{full: true, stream: "b", data: []byte("xy")})
	if d, _ := s.lookup("b"); string(d) != "1234" {
		t.Fatalf("short snapshot replaced longer copy: %q", d)
	}
	s.receive(&replicaPush{full: true, stream: "b", data: []byte("abcdef")})
	if d, _ := s.lookup("b"); string(d) != "abcdef" {
		t.Fatalf("longer snapshot not adopted: %q", d)
	}

	// Adoption seeds an own mirror; appendOwn on a held peer copy keeps it.
	s.adopt("b", []byte("abc"))
	if d, own := s.lookup("b"); !own || string(d) != "abcdef" {
		t.Fatalf("adopt shrank the mirror: %q own=%v", d, own)
	}
	s.receive(&replicaPush{stream: "c", data: []byte("peer")})
	s.appendOwn("c", []byte("-mine"))
	if d, own := s.lookup("c"); !own || string(d) != "peer-mine" {
		t.Fatalf("appendOwn lost held peer prefix: %q own=%v", d, own)
	}

	// Truncation (tail repair after a decode error).
	s.truncate("c", 4)
	if d, _ := s.lookup("c"); string(d) != "peer" {
		t.Fatalf("truncate: %q", d)
	}
}

// replicaRunners launches w ranks of a replicated job of k partners on a
// fresh cluster and runs body on each rank's runner, stopping its store
// after; the caller drives clus.Sim.Run.
func replicaRunners(w, k int, body func(r *runner)) *cluster.Cluster {
	clus := testCluster(1, w)
	spec := wcSpec("rep-push", 2, ModelDetectResumeWC).withDefaults()
	spec.ReplicaK = k
	Launch(clus, w, func(app *App) {
		r := newRunner(&jobCtx{clus: clus, spec: spec, res: app.h.resultSlot(0, spec), h: app.h}, app.comm, &app.bufs)
		body(r)
		r.ck.stop()
	})
	return clus
}

// TestBankedPushOutlivesMirrorRewrites holds the aliasing contract at
// replicaEntry: a push banked in the partner's mailbox views the sender's
// mirror, so the partner must read the bytes it was sent after the sender's
// mirror has been adopted over or replaced by a longer peer snapshot (both
// fitting the mirror's spare room, which neither may write into), or
// truncated and re-appended (which must not write over the cut tail).
func TestBankedPushOutlivesMirrorRewrites(t *testing.T) {
	sent := map[string]string{"adopted": "first-frame", "replaced": "own-bytes", "cut": "0123456789"}
	got := map[string]string{}
	clus := replicaRunners(2, 1, func(r *runner) {
		if r.comm.Rank() == 0 {
			for stream, data := range sent {
				r.rep.push(stream, []byte(data))
			}
			r.rep.store.adopt("adopted", []byte("ADOPTED-STREAM"))
			r.rep.store.receive(&replicaPush{full: true, stream: "replaced", data: []byte("PEER-SNAPSHOT")})
			r.rep.store.truncate("cut", 4)
			r.rep.store.appendOwn("cut", []byte("XYZ"))
		}
		if err := r.comm.Barrier(); err != nil {
			t.Errorf("barrier: %v", err)
		}
		if r.comm.Rank() == 1 {
			r.rep.drain()
			for stream := range sent {
				data, _ := r.rep.store.lookup(stream)
				got[stream] = string(data)
			}
		}
	})
	clus.Sim.Run()
	for stream, data := range sent {
		if got[stream] != data {
			t.Errorf("the partner holds %q of the %s stream, want the %q it was sent", got[stream], stream, data)
		}
	}
}

// pushBytes returns the bytes the host allocates for one replicator.push of
// a frame of n bytes to k=2 partners, the stream's mirror grown beforehand
// and the partners already covered: the least of three runs, each the mean
// over 16 pushes.
func pushBytes(n int) uint64 {
	const pushes = 16
	frame := bytes.Repeat([]byte{7}, n)
	least := uint64(math.MaxUint64)
	for range 3 {
		clus := replicaRunners(3, 2, func(r *runner) {
			if r.comm.Rank() == 0 {
				r.rep.store.entry("s").data = make([]byte, 0, (pushes+1)*n)
				r.rep.push("s", frame)
				r.p.Sleep(time.Second - r.p.Now())
				for range pushes {
					r.rep.push("s", frame)
				}
			}
			r.p.Sleep(2*time.Second - r.p.Now())
		})
		var at [2]runtime.MemStats
		for i := range at {
			clus.Sim.After(time.Duration(i)*time.Second+time.Second/2, func() { runtime.ReadMemStats(&at[i]) })
		}
		clus.Sim.Run()
		least = min(least, (at[1].TotalAlloc-at[0].TotalAlloc)/pushes)
	}
	return least
}

// TestReplicaPushCopiesNoPayload is the replica push's allocation gate (make
// alloc-gate): a push sends one view of the sender's mirror to its k
// partners, so what it allocates — the message, the sends' envelopes and
// their scheduling — does not grow with the frame.
func TestReplicaPushCopiesNoPayload(t *testing.T) {
	small, large := pushBytes(1<<10), pushBytes(1<<16)
	t.Logf("one push to 2 partners allocates %d B for a 1 KiB frame, %d B for a 64 KiB frame", small, large)
	if small > 512 || large > 512 {
		t.Fatalf("one push allocates %d B for a 1 KiB frame and %d B for a 64 KiB one, want at most 512 B each", small, large)
	}
}

// ------------------------------------------------------ end-to-end tests --

// replicaRecoveryReads runs a WC job with a reduce-phase kill and returns
// the per-source recovery read counters.
func replicaRecoveryReads(t *testing.T, k int) (local, peer, pfs float64) {
	t.Helper()
	clus := testCluster(4, 2)
	clus.Metrics = metrics.New(clus.Sim)
	name := "rep-red"
	expect := genInput(clus, "in/"+name, 16, 60, 19)
	spec := wcSpec(name, 8, ModelDetectResumeWC)
	spec.ReplicaK = k
	h := RunSingle(clus, spec)
	killDuring(h, 6, PhaseReduce, time.Millisecond)
	clus.Sim.Run()
	res := h.Result()
	if res.Aborted {
		t.Fatal("job aborted")
	}
	checkCounts(t, readOutput(t, clus, name, 8), expect, "rep-red")
	snap := clus.Metrics.Snapshot()
	local, _ = snap.Series(metrics.MRecoveryReads, "replica-local")
	peer, _ = snap.Series(metrics.MRecoveryReads, "replica-peer")
	pfs, _ = snap.Series(metrics.MRecoveryReads, "pfs")
	return local, peer, pfs
}

func TestReplicaRecoveryServesFromMemory(t *testing.T) {
	local, peer, pfs := replicaRecoveryReads(t, 2)
	if local+peer == 0 {
		t.Fatalf("no replica-served recovery reads (local=%v peer=%v pfs=%v)", local, peer, pfs)
	}
}

func TestReplicaDisabledReadsOnlyPFS(t *testing.T) {
	local, peer, pfs := replicaRecoveryReads(t, 0)
	if local != 0 || peer != 0 {
		t.Fatalf("replica reads with ReplicaK=0: local=%v peer=%v", local, peer)
	}
	if pfs == 0 {
		t.Fatal("work-conserving recovery recorded no recovery reads at all")
	}
}
