package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/storage"
)

// pinCase is one pipeline configuration of the golden table: every execution
// role (plain rank, checkpointing primary, shadow, promoted shadow), every
// storage retry loop and every recovery branch is reached by at least one
// case × kill combination.
type pinCase struct {
	name   string
	model  Model
	tune   func(*Spec)
	faults func(*cluster.Cluster) // storage fault injection, nil for a healthy cluster
	victim int                    // world rank the kill variants take down
}

// pfsChaos attaches the seeded chaos fault mix to the PFS: torn checkpoint
// and output appends, transient chunk and checkpoint read faults. The
// injector draws its RNG per storage call, so a refactor that adds, drops or
// reorders one call shifts every later fault and shows up in the table.
func pfsChaos(seed int64) func(*cluster.Cluster) {
	return func(clus *cluster.Cluster) {
		clus.PFS.Faults = storage.NewInjector(storage.ChaosPolicy(seed))
	}
}

var pinCases = []pinCase{
	// Rank 5's finished tasks are known to the survivors when it dies in
	// reduce (post-shuffle restore); rank 2's are not (remap).
	{name: "wc-record-copier", model: ModelDetectResumeWC, victim: 5},
	{name: "wc-chunk-direct-fourpass", model: ModelDetectResumeWC, victim: 2,
		tune: func(s *Spec) {
			s.Granularity = GranChunk
			s.CkptLocation = LocDirectPFS
			s.Convert = ConvertFourPass
		},
		faults: pfsChaos(5)},
	{name: "nwc", model: ModelDetectResumeNWC, victim: 5,
		tune: func(s *Spec) { s.NewCombiner = newConcatCombiner }},
	{name: "cr-resume", model: ModelCheckpointRestart, victim: 2,
		tune: func(s *Spec) { s.Prefetch = true }},
	// Two PFS outage windows: one across the map phase (chunk reads, copier
	// drains), one across the end of reduce (output commits). The second opens
	// just after the last survivor of the reduce kill enters recovery (at
	// 455.65 ms), so it also catches that recovery's output truncation.
	{name: "wc-replica-outage", model: ModelDetectResumeWC, victim: 5,
		tune: func(s *Spec) { s.ReplicaK = 1 },
		faults: func(clus *cluster.Cluster) {
			clus.PFS.Faults = storage.NewInjector(storage.ChaosPolicy(9))
			clus.PFS.Faults.AddOutage(storage.OutageWindow{
				Begin: 100 * time.Millisecond, End: 300 * time.Millisecond})
			clus.PFS.Faults.AddOutage(storage.OutageWindow{
				Begin: 455700 * time.Microsecond, End: 500 * time.Millisecond})
		}},
	// Rank 1 is a replicated primary slot: the kill promotes its shadow.
	{name: "replicate", model: ModelDetectResumeWC, victim: 1,
		tune: func(s *Spec) {
			s.FTModel = FTModelReplicate
			s.NewCombiner = newConcatCombiner
		},
		faults: pfsChaos(13)},
	// Rank 6 is a shadow: its death must cost nothing but the shrink.
	{name: "replicate-shadow", model: ModelDetectResumeWC, victim: 6,
		tune: func(s *Spec) { s.FTModel = FTModelReplicate }},
	// Rank 2's slot has no shadow at fraction 0.5 (slots 0, 1 and 3 do), so
	// the kill falls through promotion to the checkpoint path.
	{name: "partial", model: ModelDetectResumeWC, victim: 2,
		tune: func(s *Spec) { s.FTModel = FTModelPartial }},
	{name: "partial-nwc", model: ModelDetectResumeNWC, victim: 2,
		tune: func(s *Spec) { s.FTModel = FTModelPartial }},
}

// concatCombiner folds a key's values into one by concatenation: wcReducer
// sums value bytes, so the fold is count-preserving and idempotent.
type concatCombiner struct{}

func newConcatCombiner() Combiner { return concatCombiner{} }

func (concatCombiner) Combine(ctx *TaskContext, key []byte, vals [][]byte) ([]byte, error) {
	return bytes.Join(vals, nil), nil
}
func (concatCombiner) Cost(key []byte, vals [][]byte) float64 { return 1e-5 * float64(len(vals)) }

var pinKills = []struct {
	name  string
	phase Phase
	delay time.Duration
}{
	{name: "none"},
	{name: "map", phase: PhaseMap, delay: 20 * time.Millisecond},
	{name: "reduce", phase: PhaseReduce, delay: time.Millisecond},
}

// runPinned executes one table cell and renders its golden line: the virtual
// makespan of every attempt, the scheduler's total event count, and a digest
// of the output partitions.
func runPinned(t *testing.T, c pinCase, kill int) string {
	t.Helper()
	k := pinKills[kill]
	name := c.name + "-" + k.name
	clus := testCluster(4, 2)
	expect := genInput(clus, "in/"+name, 16, 60, 31)
	spec := wcSpec(name, 8, c.model)
	if c.tune != nil {
		c.tune(&spec)
	}
	if c.faults != nil {
		c.faults(clus)
	}
	var elapsed []string
	var res *Result
	for attempt := 0; ; attempt++ {
		h := RunSingle(clus, spec)
		if attempt == 0 && k.phase != "" {
			killDuring(h, c.victim, k.phase, k.delay)
		}
		clus.Sim.Run()
		res = h.Result()
		if res == nil {
			t.Fatalf("%s: job never started", name)
		}
		elapsed = append(elapsed, fmt.Sprint(int64(res.Elapsed())))
		if !res.Aborted {
			break
		}
		if c.model != ModelCheckpointRestart || attempt > 0 {
			t.Fatalf("%s: attempt %d aborted", name, attempt)
		}
		spec.Resume = true // the user resubmits the job (§4.1)
	}
	if k.phase != "" && len(res.FailedRanks) == 0 && c.model != ModelCheckpointRestart {
		t.Fatalf("%s: kill never landed", name)
	}
	checkCounts(t, readOutput(t, clus, name, len(res.OutputPaths)), expect, name)
	sum := sha256.New()
	for _, path := range res.OutputPaths {
		data, _ := clus.PFS.Peek(path)
		fmt.Fprintf(sum, "%s %d\n", path, len(data))
		sum.Write(data)
	}
	return fmt.Sprintf("%-32s elapsed_ns=%s events=%d out=%x",
		name, strings.Join(elapsed, "+"), clus.Sim.EventsProcessed(), sum.Sum(nil)[:8])
}

// TestPipelineGolden pins exact virtual time, scheduler event count and
// output bytes for every pipeline role and recovery branch. The values were
// captured before internal/core was de-forked (one body per phase, one copy
// of each storage retry loop) and must not move under a refactor: the fault
// injector and the mailbox are call-order-sensitive, so equal numbers mean
// the per-rank sequence of storage and MPI calls is unchanged. Regenerate
// deliberately with
// FTMR_UPDATE_GOLDEN=1 go test ./internal/core -run TestPipelineGolden
// and review the diff like any other behaviour change.
func TestPipelineGolden(t *testing.T) {
	var got strings.Builder
	for _, c := range pinCases {
		for kill := range pinKills {
			got.WriteString(runPinned(t, c, kill))
			got.WriteByte('\n')
		}
	}
	const path = "testdata/pipeline_golden.txt"
	if os.Getenv("FTMR_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with FTMR_UPDATE_GOLDEN=1)", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden table has %d lines, run produced %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("pipeline drifted:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
