package obs_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
	"ftmrmpi/internal/failure"
	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/trace"
	"ftmrmpi/internal/workloads"
)

// observedRun executes one 8-rank wordcount job with the trace, metrics and
// introspection planes all on, kills one rank, and returns what each plane
// wrote: the trace JSONL, the final OpenMetrics text and the snapshot JSONL.
func observedRun(t *testing.T, name string, tune func(*core.Spec), victim int, phase core.Phase) [3][]byte {
	t.Helper()
	cfg := cluster.Default()
	cfg.Nodes, cfg.PPN = 4, 2
	clus := cluster.New(cfg)
	clus.Trace = trace.New(clus.Sim, 1<<16)
	clus.Metrics = metrics.New(clus.Sim)
	clus.Introspect = introspect.New(clus.Sim, 10*time.Millisecond)

	p := workloads.DefaultWordcount()
	p.Chunks, p.Lines, p.WordsLine, p.Vocab = 32, 32, 4, 500
	workloads.GenCorpus(clus, "in/"+name, p)
	spec := workloads.WordcountSpec(name, "in/"+name, 8, p)
	spec.Model = core.ModelDetectResumeWC
	spec.CkptInterval = 50
	spec.LoadBalance = true
	tune(&spec)

	h := core.RunSingle(clus, spec)
	failure.KillOnPhase(h, victim, phase, time.Millisecond)
	clus.Introspect.Start()
	clus.Sim.Run()
	clus.Introspect.Final()
	res := h.Result()
	if res == nil || res.Aborted || len(res.FailedRanks) != 1 {
		t.Fatalf("%s: job did not recover from exactly one failure: %+v", name, res)
	}
	core.ExportResultMetrics(clus.Metrics, h.Results())

	var out [3]bytes.Buffer
	for i, err := range []error{
		clus.Trace.WriteJSONL(&out[0]),
		metrics.WriteOpenMetrics(&out[1], clus.Metrics.Snapshot()),
		clus.Introspect.WriteJSONL(&out[2]),
	} {
		if err != nil {
			t.Fatalf("%s: sink %d: %v", name, i, err)
		}
	}
	return [3][]byte{out[0].Bytes(), out[1].Bytes(), out[2].Bytes()}
}

// TestObservedRunByteIdentical pins everything the three observation planes
// write for two recoveries — a detect/resume map-phase kill served from
// checkpoints, and a reduce-phase kill of a replicated primary served by
// shadow promotion — as digests captured before the planes were joined
// behind one per-rank handle and one JSONL codec. Every trace line and its
// Seq order, every registered series and its value, and every snapshot must
// stay identical under a refactor of the instrumentation; a deliberate
// change to what is observed regenerates the table with
// FTMR_UPDATE_GOLDEN=1 go test ./internal/obs -run TestObservedRunByteIdentical
// and is reviewed like any other behaviour change.
func TestObservedRunByteIdentical(t *testing.T) {
	var got strings.Builder
	for _, c := range []struct {
		name   string
		tune   func(*core.Spec)
		victim int
		phase  core.Phase
	}{
		{"wc-map-kill", func(*core.Spec) {}, 4, core.PhaseMap},
		// Rank 1 is a replicated primary slot: the kill promotes its shadow.
		{"replicate-reduce-kill", func(s *core.Spec) { s.FTModel = core.FTModelReplicate }, 1, core.PhaseReduce},
	} {
		outs := observedRun(t, c.name, c.tune, c.victim, c.phase)
		for i, plane := range []string{"trace.jsonl", "metrics.om", "introspect.jsonl"} {
			fmt.Fprintf(&got, "%-22s %-16s bytes=%-7d sha256=%x\n", c.name, plane, len(outs[i]), sha256.Sum256(outs[i]))
		}
	}
	const path = "testdata/observed_golden.txt"
	if os.Getenv("FTMR_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with FTMR_UPDATE_GOLDEN=1)", err)
	}
	if got.String() != string(want) {
		t.Errorf("observed output drifted:\n got\n%s want\n%s", got.String(), want)
	}
}

// TestIntrospectionKeepsTheClock runs a checkpoint/restart job that a
// map-phase kill aborts and that is then resubmitted with Resume, once with
// the introspection plane on and once without it. The plane only observes:
// both runs must resubmit at the same instant, end at the same instant and
// write the same trace.
func TestIntrospectionKeepsTheClock(t *testing.T) {
	run := func(observe bool) (resubmit, end time.Duration, tr []byte) {
		cfg := cluster.Default()
		cfg.Nodes, cfg.PPN = 4, 2
		clus := cluster.New(cfg)
		clus.Trace = trace.New(clus.Sim, 1<<16)
		if observe {
			clus.Introspect = introspect.New(clus.Sim, 10*time.Millisecond)
		}
		p := workloads.DefaultWordcount()
		p.Chunks, p.Lines, p.WordsLine, p.Vocab = 32, 32, 4, 500
		workloads.GenCorpus(clus, "in/cr", p)
		spec := workloads.WordcountSpec("cr", "in/cr", 8, p)
		spec.Model = core.ModelCheckpointRestart
		spec.CkptInterval = 50

		h := core.RunSingle(clus, spec)
		failure.KillOnPhase(h, 4, core.PhaseMap, time.Millisecond)
		clus.Introspect.Start()
		resubmit = clus.Sim.Run()
		if res := h.Result(); res == nil || !res.Aborted {
			t.Fatalf("observe=%v: the kill did not abort the job: %+v", observe, res)
		}
		spec.Resume = true
		h = core.RunSingle(clus, spec)
		clus.Introspect.Start()
		end = clus.Sim.Run()
		if res := h.Result(); res == nil || res.Aborted {
			t.Fatalf("observe=%v: the resubmitted job did not finish: %+v", observe, res)
		}
		var buf bytes.Buffer
		if err := clus.Trace.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return resubmit, end, buf.Bytes()
	}
	r0, e0, t0 := run(false)
	r1, e1, t1 := run(true)
	if r1 != r0 || e1 != e0 {
		t.Errorf("observed run resubmitted at %v and ended at %v, unobserved at %v and %v", r1, e1, r0, e0)
	}
	if !bytes.Equal(t1, t0) {
		t.Errorf("observed trace (%d bytes) differs from the unobserved one (%d bytes)", len(t1), len(t0))
	}
}
