// Chaos harness: randomized kills (including inside recovery windows) plus
// storage faults must never change the job's output — every seeded run
// terminates and produces per-partition bytes identical to a failure-free
// baseline. This is the end-to-end check that the WAL checkpoints, the
// torn-write repair paths, and the overlapping-failure recovery restart
// compose correctly.
package failure

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
	"ftmrmpi/internal/trace"
	"ftmrmpi/internal/workloads"
)

const chaosParts = 8

func chaosCorpus() workloads.WordcountParams {
	p := workloads.DefaultWordcount()
	p.Chunks = 24
	p.Lines = 24
	p.WordsLine = 4
	p.Vocab = 300
	return p
}

func chaosCluster() *cluster.Cluster {
	cfg := cluster.Default()
	cfg.Nodes = 4
	cfg.PPN = 2
	clus := cluster.New(cfg)
	clus.Trace = trace.New(clus.Sim, 1<<20)
	return clus
}

func chaosSpec(name string, p workloads.WordcountParams) core.Spec {
	spec := workloads.WordcountSpec(name, "in/"+name, chaosParts, p)
	spec.Model = core.ModelDetectResumeWC
	spec.CkptInterval = 25
	spec.LoadBalance = true
	return spec
}

// readParts returns each output partition's raw bytes (nil when missing).
func readParts(clus *cluster.Cluster, jobID string) [][]byte {
	out := make([][]byte, chaosParts)
	for i := range out {
		data, err := clus.PFS.Peek(fmt.Sprintf("out/%s/part-%05d", jobID, i))
		if err == nil {
			out[i] = data
		}
	}
	return out
}

// killsInsideRecovery counts FailureKill events whose virtual time falls
// inside some rank's recovery span. Spans left open (the rank itself died
// mid-recovery) extend to infinity: a kill at or after such a begin counts.
func killsInsideRecovery(evs []trace.Event) int {
	type span struct {
		begin time.Duration
		end   time.Duration
		open  bool
	}
	var spans []span
	stacks := map[int][]time.Duration{}
	for _, ev := range evs {
		switch ev.Kind {
		case trace.KindRecoveryBegin:
			stacks[ev.Rank] = append(stacks[ev.Rank], ev.VT)
		case trace.KindRecoveryEnd:
			if s := stacks[ev.Rank]; len(s) > 0 {
				spans = append(spans, span{begin: s[len(s)-1], end: ev.VT})
				stacks[ev.Rank] = s[:len(s)-1]
			}
		}
	}
	for _, s := range stacks {
		for _, b := range s {
			spans = append(spans, span{begin: b, open: true})
		}
	}
	n := 0
	for _, ev := range evs {
		if ev.Kind != trace.KindFailureKill {
			continue
		}
		for _, sp := range spans {
			if ev.VT >= sp.begin && (sp.open || ev.VT <= sp.end) {
				n++
				break
			}
		}
	}
	return n
}

func countKind(evs []trace.Event, k trace.Kind, name string) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == k && (name == "" || ev.Name == name) {
			n++
		}
	}
	return n
}

// TestKillDuringRecoveryRestartsRecovery kills one rank mid-reduce and a
// second rank inside the resulting shrink/agree window. The survivors must
// re-revoke and restart recovery (visible as "re-initiate" revokes and
// extra recovery.begin spans in the trace) and still finish the job with
// correct output — not hang or abort.
func TestKillDuringRecoveryRestartsRecovery(t *testing.T) {
	clus := chaosCluster()
	p := chaosCorpus()
	expect := workloads.GenCorpus(clus, "in/kdr", p)
	spec := chaosSpec("kdr", p)

	h := core.RunSingle(clus, spec)
	KillOnPhase(h, 3, core.PhaseReduce, time.Millisecond)
	KillDuringRecovery(h, 20*time.Microsecond)
	clus.Sim.Run()

	res := h.Result()
	if res == nil || res.Aborted {
		t.Fatalf("job did not complete: %+v", res)
	}
	if len(res.FailedRanks) < 2 {
		t.Fatalf("FailedRanks = %v, want the mid-recovery victim too", res.FailedRanks)
	}
	if st := clus.Sim.Stranded(); len(st) != 0 {
		t.Fatalf("stranded: %v", st)
	}
	got := workloads.ReadWordCounts(clus, "kdr", chaosParts)
	if len(got) != len(expect) {
		t.Fatalf("output has %d distinct words, want %d", len(got), len(expect))
	}
	for w, n := range expect {
		if got[w] != n {
			t.Fatalf("word %q: got %d, want %d", w, got[w], n)
		}
	}

	evs := clus.Trace.Events()
	if n := killsInsideRecovery(evs); n == 0 {
		t.Error("no kill landed inside a recovery window")
	}
	if n := countKind(evs, trace.KindRevoke, "re-initiate"); n == 0 {
		t.Error("no re-initiate revoke: recovery was never restarted")
	}
	// The restart shows up as more recovery.begin events than a single
	// clean episode would produce (one per survivor).
	begins := countKind(evs, trace.KindRecoveryBegin, "")
	if survivors := chaosParts - len(res.FailedRanks); begins <= survivors {
		t.Errorf("%d recovery.begin events for %d survivors: no restarted span", begins, survivors)
	}
}

// TestReplicaOutageChaosMatchesBaseline is the replica-selftest: a
// failure-free baseline, then 20 seeded chaos runs that each add — on top
// of random kills and storage faults — the diskless replica tier
// (ReplicaK=2) and a whole-PFS outage window in the middle of the job.
// Every run must terminate (ranks wait the outage out rather than abort),
// strand nothing, and produce per-partition bytes identical to the
// baseline; across the campaign the outage window must actually have
// rejected PFS operations.
func TestReplicaOutageChaosMatchesBaseline(t *testing.T) {
	const (
		runs     = 20
		maxKills = 2
		name     = "rchaos"
	)
	p := chaosCorpus()

	repSpec := func() core.Spec {
		spec := chaosSpec(name, p)
		spec.ReplicaK = 2
		return spec
	}

	base := chaosCluster()
	workloads.GenCorpus(base, "in/"+name, p)
	hb := core.RunSingle(base, repSpec())
	base.Sim.Run()
	if res := hb.Result(); res == nil || res.Aborted {
		t.Fatalf("baseline did not complete: %+v", res)
	}
	baseline := readParts(base, name)
	for i, b := range baseline {
		if len(b) == 0 {
			t.Fatalf("baseline partition %d is empty", i)
		}
	}
	killWindow := base.Sim.Now() * 6 / 10
	// The whole PFS goes dark for a fifth of the baseline makespan, starting
	// mid-map — overlapping both checkpoint writes and, on most seeds, the
	// recovery reads that follow the first kill.
	outBegin := base.Sim.Now() * 35 / 100
	outEnd := base.Sim.Now() * 55 / 100

	outageOps := 0
	for seed := int64(1); seed <= runs; seed++ {
		clus := chaosCluster()
		workloads.GenCorpus(clus, "in/"+name, p)
		StorageFaults(clus, seed)
		PFSOutage(clus, outBegin, outEnd)

		h := core.RunSingle(clus, repSpec())
		Chaos(h, seed, maxKills, killWindow)
		clus.Sim.Run() // returning at all is the termination check

		res := h.Result()
		if res == nil || res.Aborted {
			t.Fatalf("seed %d: aborted or never started: %+v", seed, res)
		}
		if st := clus.Sim.Stranded(); len(st) != 0 {
			t.Fatalf("seed %d: stranded procs: %v", seed, st)
		}
		got := readParts(clus, name)
		for i := range baseline {
			if !bytes.Equal(got[i], baseline[i]) {
				t.Fatalf("seed %d: partition %d differs from baseline (%d vs %d bytes)",
					seed, i, len(got[i]), len(baseline[i]))
			}
		}
		outageOps += clus.PFS.Faults.Stats.OutageOps
	}
	if outageOps == 0 {
		t.Error("no PFS operation ever hit the outage window")
	}
}

// TestChaosRunsMatchBaseline runs a failure-free baseline, then 20 seeded
// chaos runs (random kills, a kill aimed inside the first recovery window,
// and storage fault injection on every tier) on fresh clusters. Every run
// must terminate, leave no stranded process, and produce per-partition
// output bytes identical to the baseline; across the whole campaign at
// least one kill must land inside a recovery window.
func TestChaosRunsMatchBaseline(t *testing.T) {
	const (
		runs     = 20
		maxKills = 2
		name     = "chaos"
	)
	p := chaosCorpus()

	// Failure-free baseline: reference bytes and the time window to aim at.
	base := chaosCluster()
	workloads.GenCorpus(base, "in/"+name, p)
	hb := core.RunSingle(base, chaosSpec(name, p))
	base.Sim.Run()
	if res := hb.Result(); res == nil || res.Aborted {
		t.Fatalf("baseline did not complete: %+v", res)
	}
	baseline := readParts(base, name)
	for i, b := range baseline {
		if len(b) == 0 {
			t.Fatalf("baseline partition %d is empty", i)
		}
	}
	window := base.Sim.Now() * 6 / 10

	recoveryKills := 0
	for seed := int64(1); seed <= runs; seed++ {
		clus := chaosCluster()
		workloads.GenCorpus(clus, "in/"+name, p)
		var jsonl bytes.Buffer
		clus.Trace.StreamJSONL(&jsonl)
		StorageFaults(clus, seed)

		h := core.RunSingle(clus, chaosSpec(name, p))
		Chaos(h, seed, maxKills, window)
		clus.Sim.Run() // returning at all is the termination check

		res := h.Result()
		if res == nil || res.Aborted {
			t.Fatalf("seed %d: aborted or never started: %+v", seed, res)
		}
		if st := clus.Sim.Stranded(); len(st) != 0 {
			t.Fatalf("seed %d: stranded procs: %v", seed, st)
		}
		got := readParts(clus, name)
		for i := range baseline {
			if !bytes.Equal(got[i], baseline[i]) {
				t.Fatalf("seed %d: partition %d differs from baseline (%d vs %d bytes)",
					seed, i, len(got[i]), len(baseline[i]))
			}
		}
		if err := clus.Trace.FlushStream(); err != nil {
			t.Fatalf("seed %d: stream sink: %v", seed, err)
		}
		// The streamed JSONL must be complete and well-formed: one JSON
		// object per line, at least as many as survive in the rings.
		lines := 0
		sc := bufio.NewScanner(&jsonl)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var m map[string]any
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				t.Fatalf("seed %d: bad JSONL line %d: %v", seed, lines+1, err)
			}
			lines++
		}
		evs := clus.Trace.Events()
		if lines < len(evs) {
			t.Fatalf("seed %d: streamed %d events, ring holds %d", seed, lines, len(evs))
		}
		recoveryKills += killsInsideRecovery(evs)
	}
	if recoveryKills == 0 {
		t.Error("no chaos run put a kill inside a recovery window")
	}
}
