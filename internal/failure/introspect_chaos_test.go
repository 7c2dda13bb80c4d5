// False-positive lockdown for the introspection plane: runs that complete —
// even under random kills, storage faults, and a whole-PFS outage window —
// must never produce a stall report, and same-seed reruns must serialize
// byte-identical snapshot streams. A deadlock detector that cries wolf on
// recovery windows or outage waits would be worse than none.
package failure

import (
	"bytes"
	"testing"
	"time"

	"ftmrmpi/internal/core"
	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/workloads"
)

// introspectChaosRun executes one seeded chaos run (kills + storage faults +
// PFS outage) with the introspection plane armed at the given cadence and
// returns the handle's result, the plane, and the serialized snapshot stream.
func introspectChaosRun(t *testing.T, seed int64, killWindow, outBegin, outEnd time.Duration) (*core.Handle, *introspect.Plane, []byte) {
	t.Helper()
	p := chaosCorpus()
	clus := chaosCluster()
	clus.Introspect = introspect.New(clus.Sim, 2*time.Millisecond)
	clus.Introspect.Outages = clus.Outages
	workloads.GenCorpus(clus, "in/ichaos", p)
	StorageFaults(clus, seed)
	PFSOutage(clus, outBegin, outEnd)

	h := core.RunSingle(clus, chaosSpec("ichaos", p))
	Chaos(h, seed, 2, killWindow)
	clus.Introspect.Start()
	clus.Sim.Run()
	clus.Introspect.Final()

	if st := clus.Sim.Stranded(); len(st) != 0 {
		t.Fatalf("seed %d: stranded procs: %v", seed, st)
	}
	var buf bytes.Buffer
	if err := clus.Introspect.WriteJSONL(&buf); err != nil {
		t.Fatalf("seed %d: WriteJSONL: %v", seed, err)
	}
	return h, clus.Introspect, buf.Bytes()
}

// TestIntrospectChaosNoFalseStalls runs the 20-seed chaos campaign with the
// plane capturing at a tight cadence. Every run must complete, and a
// completing run must yield zero stall reports — recovery shrink windows,
// outage parking, and checkpoint drains are waiting, not deadlock.
func TestIntrospectChaosNoFalseStalls(t *testing.T) {
	const runs = 20

	// Size the kill/outage windows off a failure-free baseline, exactly the
	// way the replica chaos test does.
	p := chaosCorpus()
	base := chaosCluster()
	workloads.GenCorpus(base, "in/ichaos", p)
	hb := core.RunSingle(base, chaosSpec("ichaos", p))
	base.Sim.Run()
	if res := hb.Result(); res == nil || res.Aborted {
		t.Fatalf("baseline did not complete: %+v", res)
	}
	killWindow := base.Sim.Now() * 6 / 10
	outBegin := base.Sim.Now() * 35 / 100
	outEnd := base.Sim.Now() * 55 / 100

	for seed := int64(1); seed <= runs; seed++ {
		h, pl, stream := introspectChaosRun(t, seed, killWindow, outBegin, outEnd)
		res := h.Result()
		if res == nil || res.Aborted {
			t.Fatalf("seed %d: aborted or never started: %+v", seed, res)
		}
		if stalls := pl.Stalls(); len(stalls) != 0 {
			t.Fatalf("seed %d: completing run produced %d stall report(s): %+v",
				seed, len(stalls), stalls)
		}
		if len(pl.Snapshots()) < 2 {
			t.Fatalf("seed %d: plane captured %d snapshots, want a live cadence",
				seed, len(pl.Snapshots()))
		}
		if !bytes.Contains(stream, []byte(`"kind":"snapshot"`)) {
			t.Fatalf("seed %d: stream carries no snapshots", seed)
		}
		// Every capture inside the PFS outage window names the tier and the
		// window's end; none outside it does.
		inside := 0
		for _, snap := range pl.Snapshots() {
			at := time.Duration(snap.VTus * 1e3)
			in := at >= outBegin && at < outEnd
			if in {
				inside++
			}
			switch {
			case in && (len(snap.Outages) != 1 || snap.Outages[0].Tier != "pfs" || snap.Outages[0].UntilUS != float64(outEnd)/1e3):
				t.Fatalf("seed %d: snapshot at %v inside the outage lists %+v", seed, at, snap.Outages)
			case !in && len(snap.Outages) != 0:
				t.Fatalf("seed %d: snapshot at %v outside the outage lists %+v", seed, at, snap.Outages)
			}
		}
		if inside == 0 {
			t.Fatalf("seed %d: no capture fell inside the outage window %v-%v", seed, outBegin, outEnd)
		}
	}
}

// TestIntrospectChaosDeterministicSnapshots reruns the same chaos seed and
// requires byte-identical serialized snapshot streams: captures are keyed on
// virtual time only, so identical seeds must reproduce identical JSONL.
func TestIntrospectChaosDeterministicSnapshots(t *testing.T) {
	p := chaosCorpus()
	base := chaosCluster()
	workloads.GenCorpus(base, "in/ichaos", p)
	hb := core.RunSingle(base, chaosSpec("ichaos", p))
	base.Sim.Run()
	if res := hb.Result(); res == nil || res.Aborted {
		t.Fatalf("baseline did not complete: %+v", res)
	}
	killWindow := base.Sim.Now() * 6 / 10
	outBegin := base.Sim.Now() * 35 / 100
	outEnd := base.Sim.Now() * 55 / 100

	for _, seed := range []int64{3, 11} {
		_, _, a := introspectChaosRun(t, seed, killWindow, outBegin, outEnd)
		_, _, b := introspectChaosRun(t, seed, killWindow, outBegin, outEnd)
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: same-seed snapshot streams differ (%d vs %d bytes)",
				seed, len(a), len(b))
		}
	}
}
