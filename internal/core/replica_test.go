package core

import (
	"bytes"
	"testing"
	"time"

	"ftmrmpi/internal/metrics"
)

// ------------------------------------------------------ store unit tests --

func TestReplicaMsgRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		kind   byte
		stream string
		data   []byte
	}{
		{replicaDelta, "map/t000001", []byte("frames")},
		{replicaFull, "part/p000002", nil},
		{replicaFull, "", []byte{0, 1, 2}},
	} {
		msg := encodeReplicaMsg(tc.kind, tc.stream, tc.data)
		kind, stream, data, ok := decodeReplicaMsg(msg)
		if !ok || kind != tc.kind || stream != tc.stream || !bytes.Equal(data, tc.data) {
			t.Errorf("round trip %q: got kind=%d stream=%q data=%q ok=%v", tc.stream, kind, stream, data, ok)
		}
	}
	// Garbage must not decode.
	if _, _, _, ok := decodeReplicaMsg([]byte{1, 0xff, 0xff, 'x'}); ok {
		t.Error("decoded a message whose name length exceeds the payload")
	}
	if _, _, _, ok := decodeReplicaMsg([]byte{1, 2}); ok {
		t.Error("decoded a truncated header")
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
	s.receive(replicaDelta, "b", []byte("12"))
	s.receive(replicaDelta, "b", []byte("34"))
	if d, own := s.lookup("b"); own || string(d) != "1234" {
		t.Fatalf("peer deltas: %q own=%v", d, own)
	}
	s.receive(replicaFull, "b", []byte("xy"))
	if d, _ := s.lookup("b"); string(d) != "1234" {
		t.Fatalf("short snapshot replaced longer copy: %q", d)
	}
	s.receive(replicaFull, "b", []byte("abcdef"))
	if d, _ := s.lookup("b"); string(d) != "abcdef" {
		t.Fatalf("longer snapshot not adopted: %q", d)
	}

	// Adoption seeds an own mirror; appendOwn on a held peer copy keeps it.
	s.adopt("b", []byte("abc"))
	if d, own := s.lookup("b"); !own || string(d) != "abcdef" {
		t.Fatalf("adopt shrank the mirror: %q own=%v", d, own)
	}
	s.receive(replicaDelta, "c", []byte("peer"))
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
