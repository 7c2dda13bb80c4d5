// The failure campaign: the promise that a job's output survives any failure,
// checked as one table. A row names a cell — the failure-free configuration:
// cluster shape and Spec mutators — plus the cluster faults its runs add, an
// injector over a range of seeds and the row's own campaign assertions. Each
// distinct cell runs failure-free once per test process (baselineOf); that run
// is checked against the sequential reference GenCorpus returns, and supplies
// the reference partitions, the makespan the kill and outage windows are cut
// from, and the event count the ordinal sweep enumerates. One oracle
// (baseline.check) then judges every run: it terminates, is not aborted (under
// checkpoint/restart: after one Resume resubmission), strands no process,
// lost every rank a seeded injector aimed at, and writes partitions byte-equal
// to the baseline's.
//
// Each row runs as its own test, so `go test -run <row>` runs one row.
package failure

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/sched"
	"ftmrmpi/internal/trace"
	"ftmrmpi/internal/workloads"
)

const job = "chaos"

func chaosCorpus() workloads.WordcountParams {
	p := workloads.DefaultWordcount()
	p.Chunks = 24
	p.Lines = 24
	p.WordsLine = 4
	p.Vocab = 300
	return p
}

// cell is a failure-free configuration: nodes of two ranks each, one rank per
// core, running the chaos corpus under the Spec mutators below. It is the key
// of the baseline memo.
type cell struct {
	nodes    int
	model    core.Model
	replicaK int
	ftModel  core.FTModel
	lb       core.LBModelKind
	untraced bool // no trace ring: the sweep's thousands of runs read no trace
}

// The campaign's cells: the seeded rows run W=8 detect/resume(WC), the sweep
// W=4 under every model that resumes a job.
var (
	drwc8 = cell{nodes: 4, model: core.ModelDetectResumeWC}
	sweep = []cell{
		{nodes: 2, model: core.ModelCheckpointRestart, untraced: true},
		{nodes: 2, model: core.ModelDetectResumeWC, untraced: true},
		{nodes: 2, model: core.ModelDetectResumeNWC, untraced: true},
	}
)

func (c cell) ranks() int { return 2 * c.nodes }

func (c cell) spec() core.Spec {
	spec := workloads.WordcountSpec(job, "in/"+job, c.ranks(), chaosCorpus())
	spec.Model, spec.ReplicaK, spec.FTModel, spec.LBModel = c.model, c.replicaK, c.ftModel, c.lb
	spec.CkptInterval = 25
	spec.LoadBalance = true
	return spec
}

func (c cell) cluster() *cluster.Cluster {
	cfg := cluster.Default()
	cfg.Nodes, cfg.PPN = c.nodes, 2
	clus := cluster.New(cfg)
	if !c.untraced {
		clus.Trace = trace.New(clus.Sim, 1<<20)
	}
	return clus
}

// baseline is a cell's failure-free run.
type baseline struct {
	parts    [][]byte      // every partition's output bytes, nil where none was written
	makespan time.Duration // the virtual instant the run ended
	events   uint64        // events it fired: the sweep's ordinals are 1..events
}

// window is where seeded kills land: the first 60 % of the makespan.
func (b *baseline) window() time.Duration { return b.makespan * 6 / 10 }

// outage is the whole-PFS outage the outage rows open: a fifth of the
// makespan from mid-map, across checkpoint writes and, on most seeds, the
// recovery reads after the first kill.
func (b *baseline) outage() (begin, end time.Duration) {
	return b.makespan * 35 / 100, b.makespan * 55 / 100
}

var baselines = map[cell]*baseline{} // the memo: one failure-free run per cell per process

// baselineOf returns c's failure-free run, running it (and checking it
// against the sequential reference) the first time c is asked for.
func baselineOf(t *testing.T, c cell) *baseline {
	t.Helper()
	if b := baselines[c]; b != nil {
		return b
	}
	clus := c.cluster()
	expect := workloads.GenCorpus(clus, "in/"+job, chaosCorpus())
	h := core.RunSingle(clus, c.spec())
	clus.Sim.Run()
	res := h.Result()
	if res == nil || res.Aborted {
		t.Fatalf("baseline of %+v did not complete: %+v", c, res)
	}
	b := &baseline{parts: readParts(clus, c.ranks()), makespan: clus.Sim.Now(), events: clus.Sim.EventsProcessed()}
	for i := range res.OutputPaths {
		if len(b.parts[i]) == 0 {
			t.Fatalf("baseline of %+v: partition %d is empty", c, i)
		}
	}
	got := workloads.ReadWordCounts(clus, job, c.ranks())
	if len(got) != len(expect) {
		t.Fatalf("baseline of %+v: %d distinct words, the reference has %d", c, len(got), len(expect))
	}
	for w, n := range expect {
		if got[w] != n {
			t.Fatalf("baseline of %+v: word %q counted %d times, the reference says %d", c, w, got[w], n)
		}
	}
	baselines[c] = b
	return b
}

// readParts returns each output partition's raw bytes (nil when missing).
func readParts(clus *cluster.Cluster, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i], _ = clus.PFS.Peek(fmt.Sprintf("out/%s/part-%05d", job, i))
	}
	return out
}

// run is one campaign run.
type run struct {
	name        string
	clus        *cluster.Cluster
	h           *core.Handle
	first, res  *core.Result // the first attempt's result and the final one (they differ after a resubmission)
	victim      int          // the sweep's victim
	aimed       int          // the kills a seeded injector aims at live ranks: all must land
	jsonl, snap bytes.Buffer // the streamed trace and the introspection stream
}

// launch sets up one run of c on a fresh cluster — the trace streamed, the
// introspection plane armed when asked — and submits the job.
func (c cell) launch(name string, introspected bool) *run {
	r := &run{name: name, clus: c.cluster(), victim: -1}
	if introspected {
		r.clus.Introspect = introspect.New(r.clus.Sim, 2*time.Millisecond)
		r.clus.Introspect.Outages = r.clus.Outages
	}
	workloads.GenCorpus(r.clus, "in/"+job, chaosCorpus())
	r.clus.Trace.StreamJSONL(&r.jsonl)
	r.h = core.RunSingle(r.clus, c.spec())
	return r
}

// finish drives the run to its end. An aborted checkpoint/restart job is
// resubmitted once with Resume, as a user would (§4.1).
func (r *run) finish(t *testing.T) {
	t.Helper()
	pl := r.clus.Introspect
	pl.Start()
	r.clus.Sim.Run()
	pl.Final()
	r.first, r.res = r.h.Result(), r.h.Result()
	if r.res != nil && r.res.Aborted && r.res.Spec.Model == core.ModelCheckpointRestart {
		spec := r.res.Spec
		spec.Resume, spec.Prefetch = true, true
		h := core.RunSingle(r.clus, spec)
		r.clus.Sim.Run()
		r.res = h.Result()
	}
	if err := r.clus.Trace.FlushStream(); err != nil {
		t.Fatalf("%s: trace stream: %v", r.name, err)
	}
	if pl != nil {
		if err := pl.WriteJSONL(&r.snap); err != nil {
			t.Fatalf("%s: introspection stream: %v", r.name, err)
		}
	}
}

// check is the oracle: the run (having returned at all) is not aborted,
// strands nothing, lost the ranks its injector aimed at and wrote the
// baseline's partitions.
func (b *baseline) check(t *testing.T, r *run) {
	t.Helper()
	if r.res == nil || r.res.Aborted {
		t.Fatalf("%s: aborted or never started: %+v", r.name, r.res)
	}
	if st := r.clus.Sim.Stranded(); len(st) != 0 {
		t.Fatalf("%s: stranded procs: %v", r.name, st)
	}
	if r.aimed > 0 && len(r.res.FailedRanks) != r.aimed {
		t.Fatalf("%s: the injector aimed %d kills, the job lost %v", r.name, r.aimed, r.res.FailedRanks)
	}
	got := readParts(r.clus, len(b.parts))
	for i := range b.parts {
		if !bytes.Equal(got[i], b.parts[i]) {
			t.Fatalf("%s: partition %d differs from the baseline (%d vs %d bytes)", r.name, i, len(got[i]), len(b.parts[i]))
		}
	}
}

// row is one line of the campaign.
type row struct {
	cells          []cell
	names          []string // the cells' subtest names, when there is more than one
	faults, outage bool     // StorageFaults(seed); the baseline's PFS outage window
	introspected   bool     // the introspection plane armed
	inject         func(t *testing.T, r *run, seed int64, b *baseline)
	seeds          func(b *baseline) []int64
	unit           string // what a seed is, in failure messages ("seed" when empty)
	rerun          bool   // run every seed twice: the two must be byte-identical
	check          func(t *testing.T, r *run, b *baseline)
	tallies        map[string]func(r *run, seed int64) int // campaign assertions: each sums to ≥ 1
	stride         int                                     // the sweep: logs its size, and -short runs every stride-th seed
}

// these is a row's fixed seeds.
func these(seeds ...int64) func(*baseline) []int64 { return func(*baseline) []int64 { return seeds } }

// between returns lo..hi.
func between(lo, hi int64) []int64 {
	var out []int64
	for s := lo; s <= hi; s++ {
		out = append(out, s)
	}
	return out
}

func (rw row) run(t *testing.T) {
	if len(rw.cells) == 1 {
		rw.runCell(t, rw.cells[0])
		return
	}
	for i, c := range rw.cells {
		t.Run(rw.names[i], func(t *testing.T) { rw.runCell(t, c) })
	}
}

func (rw row) runCell(t *testing.T, c cell) {
	b := baselineOf(t, c)
	all := rw.seeds(b)
	step := 1
	if testing.Short() && rw.stride > 0 {
		step = rw.stride
	}
	sums := map[string]int{}
	n := 0
	for i := 0; i < len(all); i += step {
		r := rw.once(t, c, b, all[i])
		if rw.rerun {
			same(t, r, rw.once(t, c, b, all[i]))
		}
		for what, tally := range rw.tallies {
			sums[what] += tally(r, all[i])
		}
		n++
	}
	if rw.stride > 0 {
		t.Logf("%d of %d event ordinals swept; the failure-free run ends at %v", n, len(all), b.makespan)
	}
	for what := range rw.tallies {
		if sums[what] == 0 {
			t.Errorf("no run of the campaign had a %s", what)
		}
	}
}

func (rw row) once(t *testing.T, c cell, b *baseline, seed int64) *run {
	t.Helper()
	r := c.launch(fmt.Sprintf("%s %d", cmp.Or(rw.unit, "seed"), seed), rw.introspected)
	if rw.faults {
		StorageFaults(r.clus, seed)
	}
	if rw.outage {
		begin, end := b.outage()
		PFSOutage(r.clus, begin, end)
	}
	rw.inject(t, r, seed, b)
	if r.victim >= 0 {
		r.name += fmt.Sprintf(" (victim rank %d)", r.victim)
	}
	r.finish(t)
	b.check(t, r)
	if rw.check != nil {
		rw.check(t, r, b)
	}
	return r
}

// same requires two runs of one seed to be byte-identical: trace stream,
// snapshot stream, completion instant and failed count (their partitions
// already equal the baseline's) — any divergence is hidden state (map order,
// wall clock, unseeded randomness) in the virtual-time path.
func same(t *testing.T, a, b *run) {
	t.Helper()
	if a.res.Elapsed() != b.res.Elapsed() || len(a.res.FailedRanks) != len(b.res.FailedRanks) {
		t.Fatalf("%s: reruns differ: elapsed %v vs %v, %d vs %d failed ranks", a.name,
			a.res.Elapsed(), b.res.Elapsed(), len(a.res.FailedRanks), len(b.res.FailedRanks))
	}
	if !bytes.Equal(a.snap.Bytes(), b.snap.Bytes()) {
		t.Fatalf("%s: snapshot streams differ (%d vs %d bytes)", a.name, a.snap.Len(), b.snap.Len())
	}
	al, bl := bytes.Split(a.jsonl.Bytes(), []byte("\n")), bytes.Split(b.jsonl.Bytes(), []byte("\n"))
	for i := range min(len(al), len(bl)) {
		if !bytes.Equal(al[i], bl[i]) {
			t.Fatalf("%s: streamed traces diverge at line %d:\n  a: %s\n  b: %s", a.name, i+1, al[i], bl[i])
		}
	}
	if len(al) != len(bl) {
		t.Fatalf("%s: streamed traces differ in length: %d vs %d lines", a.name, len(al), len(bl))
	}
}

// The injectors.

// chaos is Chaos's random kills over the window, plus one aimed inside the
// first recovery.
func chaos(t *testing.T, r *run, seed int64, b *baseline) {
	Chaos(r.h, seed, 2, b.window())
	r.aimed = 3
}

// pairKills aims at one replicated pair, by seed: its primary (the shadow
// must promote with no replay), its shadow (invisible to the output), or both
// members staggered in either order (the slot's state is gone from memory:
// the survivors fall back to the checkpoint machinery).
func pairKills(t *testing.T, r *run, seed int64, b *baseline) {
	w := r.h.World.Size()
	pairing := sched.PairRanks(w, 2, w/2, 1)
	if pairing.P != w/2 {
		t.Fatalf("pairing has %d primaries for %d ranks, want %d", pairing.P, w, w/2)
	}
	rng := rand.New(rand.NewSource(seed))
	slot := rng.Intn(pairing.P)
	at := time.Duration(rng.Int63n(int64(b.window()))) + 1
	r.aimed = 1
	switch seed % 3 {
	case 0:
		KillAt(r.h.World, slot, at)
	case 1:
		KillAt(r.h.World, pairing.Shadow[slot], at)
	default:
		r.aimed = 2
		gap := time.Duration(rng.Int63n(int64(200*time.Microsecond))) + 10*time.Microsecond
		first, second := slot, pairing.Shadow[slot]
		if seed%2 == 0 {
			first, second = second, first
		}
		KillAt(r.h.World, first, at)
		KillAt(r.h.World, second, at+gap)
	}
}

// everyOrdinal kills rank n mod W once the n-th event has fired.
func everyOrdinal(t *testing.T, r *run, n int64, b *baseline) {
	r.victim = int(n) % r.h.World.Size()
	KillAtEvent(r.h.World, r.victim, uint64(n))
}

// The rows, one test each.

func TestChaosRunsMatchBaseline(t *testing.T) {
	row{cells: []cell{drwc8}, faults: true, inject: chaos, seeds: these(between(1, 20)...), check: wellFormedStream,
		tallies: map[string]func(*run, int64) int{
			"kill inside a recovery window": func(r *run, _ int64) int { return killsInsideRecovery(r.clus.Trace.Events()) },
		}}.run(t)
}

func TestReplicaOutageChaosMatchesBaseline(t *testing.T) {
	c := drwc8
	c.replicaK = 2
	row{cells: []cell{c}, faults: true, outage: true, inject: chaos, seeds: these(between(1, 20)...),
		tallies: map[string]func(*run, int64) int{
			"PFS operation rejected by the outage": func(r *run, _ int64) int { return r.clus.PFS.Faults.Stats.OutageOps },
		}}.run(t)
}

func TestFTModelChaosMatchesBaseline(t *testing.T) {
	c := drwc8
	c.ftModel = core.FTModelReplicate
	row{cells: []cell{c}, inject: pairKills, seeds: these(between(1, 30)...),
		tallies: map[string]func(*run, int64) int{
			"shadow promotion": func(r *run, _ int64) int {
				return countKind(r.clus.Trace.Events(), trace.KindFailover, "promote")
			},
			"pair that lost both members": func(r *run, seed int64) int {
				if seed%3 == 2 && len(r.res.FailedRanks) == 2 {
					return 1
				}
				return 0
			},
		}}.run(t)
}

// introspected is the introspection rows' setup: the chaos of the outage row,
// with the plane capturing every 2 ms.
var introspected = row{cells: []cell{drwc8}, faults: true, outage: true, introspected: true, inject: chaos}

func TestIntrospectChaosNoFalseStalls(t *testing.T) {
	rw := introspected
	rw.seeds, rw.check = these(between(1, 20)...), noFalseStalls
	rw.run(t)
}

func TestIntrospectChaosDeterministicSnapshots(t *testing.T) {
	rw := introspected
	rw.seeds, rw.rerun = these(3, 11), true
	rw.run(t)
}

func TestIdenticalRunsAreByteIdentical(t *testing.T) {
	traced := drwc8
	traced.lb = core.LBTrace
	row{cells: []cell{drwc8, traced}, names: []string{core.LBStatic.String(), core.LBTrace.String()},
		faults: true, inject: chaos, seeds: these(7), rerun: true}.run(t)
}

// TestKillAtEveryEventOrdinal is the exhaustive row: one kill at every event
// ordinal of the failure-free run, rank n mod W at ordinal n, W=4, under
// every model that resumes a job. Past the oracle, a job that ends has
// committed: its DONE marker and all W output paths are there, and a victim
// that died inside it is accounted for — listed in FailedRanks, or (under
// checkpoint/restart) the first attempt aborted. -short strides the ordinals.
func TestKillAtEveryEventOrdinal(t *testing.T) {
	row{cells: sweep, names: sweepNames, inject: everyOrdinal, unit: "ordinal",
		check: committed, stride: 13, seeds: func(b *baseline) []int64 { return between(1, int64(b.events)) }}.run(t)
}

var sweepNames = []string{"cr", "dr-wc", "dr-nwc"}

// TestKillNearJobEnd pins what the sweep found. Before a masking job closed
// with a shrink every survivor enters, a kill in its last ~1.3 ms stranded
// survivors in a recovery shrink the finished ranks never entered, or took
// down rank 0 while it committed the DONE marker after the others had left —
// and the job reported success with no failed rank. (A resubmitted
// checkpoint/restart job that found the marker reported no outputs.) The
// last 32 ordinals of each sweep cell hold every ordinal that exposed it
// (dr-wc 1591-1608, dr-nwc 539-556, cr 1599) and run unstrided under -short
// too; the time-keyed reproduction kills rank 3 1.26 ms before the
// failure-free end as it stood then.
func TestKillNearJobEnd(t *testing.T) {
	row{cells: sweep, names: sweepNames, inject: everyOrdinal, unit: "ordinal", check: committed,
		seeds: func(b *baseline) []int64 { return between(int64(b.events)-31, int64(b.events)) }}.run(t)
	for i, at := range []time.Duration{34829158 * time.Nanosecond, 30918406 * time.Nanosecond} {
		c := sweep[1+i]
		r := c.launch(fmt.Sprintf("%s, rank 3 killed at %v", sweepNames[1+i], at), false)
		r.victim = 3
		KillAt(r.h.World, r.victim, at)
		r.finish(t)
		b := baselineOf(t, c)
		b.check(t, r)
		committed(t, r, b)
	}
}

// The per-run checks.

// wellFormedStream: the streamed JSONL is one JSON object per line, at least
// as many as survive in the rings.
func wellFormedStream(t *testing.T, r *run, _ *baseline) {
	lines := 0
	sc := bufio.NewScanner(&r.jsonl)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("%s: bad JSONL line %d: %v", r.name, lines+1, err)
		}
		lines++
	}
	if n := len(r.clus.Trace.Events()); lines < n {
		t.Fatalf("%s: streamed %d events, the rings hold %d", r.name, lines, n)
	}
}

// noFalseStalls: a completing run yields no stall report — recovery shrink
// windows, outage parking and checkpoint drains are waiting, not deadlock —
// and a live cadence of snapshots, each naming the PFS outage exactly while
// inside its window.
func noFalseStalls(t *testing.T, r *run, b *baseline) {
	pl := r.clus.Introspect
	if stalls := pl.Stalls(); len(stalls) != 0 {
		t.Fatalf("%s: completing run produced %d stall report(s): %+v", r.name, len(stalls), stalls)
	}
	if len(pl.Snapshots()) < 2 || !bytes.Contains(r.snap.Bytes(), []byte(`"kind":"snapshot"`)) {
		t.Fatalf("%s: plane captured %d snapshots, want a live cadence", r.name, len(pl.Snapshots()))
	}
	begin, end := b.outage()
	inside := 0
	for _, snap := range pl.Snapshots() {
		at := time.Duration(snap.VTus * 1e3)
		in := at >= begin && at < end
		if in {
			inside++
		}
		switch {
		case in && (len(snap.Outages) != 1 || snap.Outages[0].Tier != "pfs" || snap.Outages[0].UntilUS != float64(end)/1e3):
			t.Fatalf("%s: snapshot at %v inside the outage lists %+v", r.name, at, snap.Outages)
		case !in && len(snap.Outages) != 0:
			t.Fatalf("%s: snapshot at %v outside the outage lists %+v", r.name, at, snap.Outages)
		}
	}
	if inside == 0 {
		t.Fatalf("%s: no capture fell inside the outage window %v-%v", r.name, begin, end)
	}
}

// committed: the job ended committed, and a victim that died inside it is
// accounted for.
func committed(t *testing.T, r *run, b *baseline) {
	if !r.clus.PFS.Exists("ckpt/" + job + "/DONE") {
		t.Fatalf("%s: no DONE marker", r.name)
	}
	if len(r.res.OutputPaths) != len(b.parts) {
		t.Fatalf("%s: %d output paths, want %d", r.name, len(r.res.OutputPaths), len(b.parts))
	}
	if r.h.World.Rank(r.victim).Alive() {
		return // the rank had left the job (or never was killed)
	}
	if r.first.Spec.Model.DetectResume() && !slices.Contains(r.res.FailedRanks, r.victim) {
		t.Fatalf("%s: the victim died inside the job, FailedRanks = %v", r.name, r.res.FailedRanks)
	}
	if !r.first.Spec.Model.DetectResume() && !r.first.Aborted {
		t.Fatalf("%s: the victim died inside a checkpoint/restart job that did not abort", r.name)
	}
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
// re-revoke and restart recovery (visible as "re-initiate" revokes and extra
// recovery.begin spans in the trace) and still pass the oracle.
func TestKillDuringRecoveryRestartsRecovery(t *testing.T) {
	r := drwc8.launch("kill during recovery", false)
	KillOnPhase(r.h, 3, core.PhaseReduce, time.Millisecond)
	KillDuringRecovery(r.h, 20*time.Microsecond)
	r.finish(t)
	baselineOf(t, drwc8).check(t, r)
	if len(r.res.FailedRanks) < 2 {
		t.Fatalf("FailedRanks = %v, want the mid-recovery victim too", r.res.FailedRanks)
	}
	evs := r.clus.Trace.Events()
	if n := killsInsideRecovery(evs); n == 0 {
		t.Error("no kill landed inside a recovery window")
	}
	if n := countKind(evs, trace.KindRevoke, "re-initiate"); n == 0 {
		t.Error("no re-initiate revoke: recovery was never restarted")
	}
	// The restart shows up as more recovery.begin events than a single clean
	// episode would produce (one per survivor).
	begins := countKind(evs, trace.KindRecoveryBegin, "")
	if survivors := drwc8.ranks() - len(r.res.FailedRanks); begins <= survivors {
		t.Errorf("%d recovery.begin events for %d survivors: no restarted span", begins, survivors)
	}
}
