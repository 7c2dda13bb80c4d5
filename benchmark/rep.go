package benchmark

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"runtime/pprof"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/trace"
	"ftmrmpi/internal/trace/critpath"
)

// Span is one timed call from the benchmark into a layer. Spans of one
// repetition share its id; they are kept in memory and written out with the
// repetition's result.
type Span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Parent string  `json:"parent"` // the scenario the call belongs to
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// Rep is the outcome of one repetition of one workload.
type Rep struct {
	ID       int      `json:"id"`
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Failures []string `json:"failures,omitempty"` // oracle violations; none means the repetition passed

	SetupS  float64 `json:"setup_s"`
	WallS   float64 `json:"wall_s"`
	AllocMB float64 `json:"alloc_mb"`
	Records int64   `json:"records"`
	Ranks   int     `json:"ranks"` // the largest world of the repetition

	// Filled from the process's rusage: by the parent for a child
	// repetition, from RUSAGE_SELF under -smoke.
	PeakRSSMB float64 `json:"peak_rss_mb"`

	// The determinism triple: identical across a workload's repetitions.
	VirtS  float64 `json:"virt_s"`
	Events uint64  `json:"events"`
	Digest string  `json:"digest"`

	Layer map[string]float64 `json:"layer"`
	Spans []Span             `json:"spans"`
}

func (r *Rep) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// repRun carries one repetition's accumulators.
type repRun struct {
	rep    *Rep
	sz     sizes
	traced bool
	t0     time.Time
	scen   string
	digest hash.Hash

	profiles []*bytes.Buffer

	// Approximate host time per phase: the time between two OnPhase
	// callbacks goes to the phase entered most recently by any rank.
	phaseCur core.Phase
	phaseAt  time.Time
	// stackSeen: goroutine stacks were sampled for the current launch. They
	// are gone by the time the run ends, so the traced repetition reads them
	// once, when the first rank enters the shuffle and every rank is alive.
	stackSeen bool

	critBy   map[critpath.Category]time.Duration
	critSpan time.Duration
}

const mb = 1 << 20

// runRep runs one repetition in this process. Traced repetitions wrap each
// measured section in a CPU profile and turn the trace and metrics planes on
// where the workload does not already.
func runRep(workload string, seed int64, sz sizes, traced bool, id int) (*Rep, error) {
	scs, err := scenarios(workload, sz, seed)
	if err != nil {
		return nil, err
	}
	r := &repRun{
		rep:    &Rep{ID: id, Workload: workload, Seed: seed, Layer: map[string]float64{}},
		sz:     sz,
		traced: traced,
		digest: sha256.New(),
		critBy: map[critpath.Category]time.Duration{},
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.t0 = time.Now()
	for _, sc := range scs {
		r.scenario(sc)
	}
	runtime.ReadMemStats(&m1)

	rep := r.rep
	rep.Digest = hex.EncodeToString(r.digest.Sum(nil))
	rep.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / mb
	l := rep.Layer
	l["go.mallocs"] = float64(m1.Mallocs - m0.Mallocs)
	l["go.num_gc"] = float64(m1.NumGC - m0.NumGC)
	l["go.heap_sys_mb"] = float64(m1.HeapSys) / mb
	for _, s := range rep.Spans {
		l["span."+s.Name+"_s"] += s.End - s.Start
	}
	if r.critSpan > 0 {
		for _, c := range critpath.Categories() {
			l["critpath.share."+c.String()] = 100 * float64(r.critBy[c]) / float64(r.critSpan)
		}
	}
	if traced {
		cpu := map[string]float64{}
		for _, p := range r.profiles {
			if err := cpuByLayer(p.Bytes(), cpu); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
		}
		for k, v := range cpu {
			l[k+".cpu_s"] = v
		}
		if workload == "wc-scale" || workload == "wc-data" {
			l["core.ckpt_overhead_virt_pct"] = 100 * (rep.VirtS/virtOf(failureFree(workload, sz, seed, core.ModelNone)) - 1)
		}
	}
	return rep, nil
}

// virtOf runs a single-job scenario off every clock and returns its virtual
// makespan (the Fig 5 baseline is the same input under ModelNone).
func virtOf(sc scenario) float64 {
	c := newCluster(sc.ranks)
	sc.gen(c)
	h := sc.launch(c)
	c.Sim.Run()
	return h.Result().Elapsed().Seconds()
}

func (r *repRun) span(name string, fn func()) float64 {
	start := time.Since(r.t0)
	fn()
	end := time.Since(r.t0)
	r.rep.Spans = append(r.rep.Spans, Span{ID: r.rep.ID, Name: name, Parent: r.scen,
		Start: start.Seconds(), End: end.Seconds()})
	return (end - start).Seconds()
}

// watchPhases attributes host time to job phases (traced repetitions only).
func (r *repRun) watchPhases(h *core.Handle) {
	if !r.traced {
		return
	}
	h.OnPhase(func(_ int, ph core.Phase) {
		if ph == r.phaseCur {
			return
		}
		r.closePhase()
		r.phaseCur = ph
		if ph == core.PhaseShuffle && !r.stackSeen {
			r.stackSeen = true
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			l := r.rep.Layer
			l["go.stack_sys_mb"] = max(l["go.stack_sys_mb"], float64(m.StackSys)/mb)
		}
	})
}

func (r *repRun) closePhase() {
	now := time.Now()
	if r.phaseCur != "" {
		r.rep.Layer["core.phase_wall_s."+string(r.phaseCur)] += now.Sub(r.phaseAt).Seconds()
	}
	r.phaseCur, r.phaseAt = "", now
}

// scenario runs one scenario: set-up clock, measured clock, then the oracle
// and the accounting, which are on neither.
func (r *repRun) scenario(sc scenario) {
	r.scen = sc.name
	rep, l := r.rep, r.rep.Layer
	planes := sc.observed || r.traced

	var c *cluster.Cluster
	rep.SetupS += r.span("cluster_new", func() {
		c = newCluster(sc.ranks)
		if planes {
			before := totalAlloc()
			c.Trace = trace.New(c.Sim, trace.DefaultCapacity)
			// Bind every recorder now so the rings are allocated on the
			// set-up clock, where the issue accounts them.
			c.Trace.Global()
			for rank := 0; rank < sc.ranks; rank++ {
				c.Trace.Rank(rank)
			}
			l["trace.ring_mb"] += (totalAlloc() - before) / mb
			c.Metrics = metrics.New(c.Sim)
		}
		if sc.observed {
			// Final snapshot only: a metrics sampler cadence together with
			// Plane.Start never terminates (README, hazards).
			c.Introspect = introspect.New(c.Sim, r.sz.introspectInterval)
		}
	})
	var check verifier
	rep.SetupS += r.span("gen_input", func() { check = sc.gen(c) })

	var prof *bytes.Buffer
	if r.traced {
		prof = new(bytes.Buffer)
		if err := pprof.StartCPUProfile(prof); err != nil {
			rep.failf("%s: cpu profile: %v", sc.name, err)
			prof = nil
		}
	}
	var handles []*core.Handle
	run := func(start func() *core.Handle) {
		rep.WallS += r.span("launch", func() {
			h := start()
			r.stackSeen = false
			r.watchPhases(h)
			c.Introspect.Start()
			handles = append(handles, h)
		})
		rep.WallS += r.span("sim_run", func() { c.Sim.Run() })
		r.closePhase()
	}
	run(func() *core.Handle { return sc.launch(c) })
	if sc.resubmit != nil {
		first := handles[0].Result()
		run(func() *core.Handle { return sc.resubmit(c, first) })
	}
	var results []*core.Result
	for _, h := range handles {
		results = append(results, h.Results()...)
	}
	var digest []byte
	var verr error
	rep.WallS += r.span("verify", func() { digest, verr = check(c) })
	var sink *sinkStats
	if sc.observed {
		sink = r.sinks(c, results, true)
	}
	if prof != nil {
		pprof.StopCPUProfile()
		r.profiles = append(r.profiles, prof)
	}
	if planes && !sc.observed {
		sink = r.sinks(c, results, false)
	}

	// Oracle.
	if verr != nil {
		rep.failf("%v", verr)
	}
	r.digest.Write(digest)
	rep.Records += sc.records
	rep.Ranks = max(rep.Ranks, sc.ranks)
	for i, res := range results {
		if want := sc.resubmit != nil && i == 0; res.Aborted != want {
			rep.failf("%s: job %s aborted=%v, want %v", sc.name, res.Spec.JobID, res.Aborted, want)
		}
		for _, m := range res.MissingRanks() {
			if handles[0].World.RankAlive(m) {
				rep.failf("%s: job %s has no metrics for live rank %d", sc.name, res.Spec.JobID, m)
			}
		}
	}
	if s := c.Sim.Stranded(); len(s) > 0 {
		rep.failf("%s: %d stranded processes (first %s)", sc.name, len(s), s[0])
	}
	if w := handles[0].World; w.Size()-w.AliveCount() < sc.kills {
		rep.failf("%s: injector killed %d ranks, want %d: the scenario did not exercise recovery",
			sc.name, w.Size()-w.AliveCount(), sc.kills)
	}
	if sink != nil {
		sink.check(rep, sc.name, sc.resubmit != nil)
		sink.account(r)
	}

	// Accounting.
	rep.Events += c.Sim.EventsProcessed()
	l["vtime.events"] = float64(rep.Events)
	l["vtime.procs"] += float64(len(c.Sim.Procs()))
	l["storage.pfs_bytes_served"] += c.PFS.BW.Served()
	for _, n := range c.Nodes {
		if n.Local != nil {
			l["storage.local_bytes_served"] += n.Local.BW.Served()
		}
	}
	l["storage.fs_bytes_resident"] += float64(c.FS.TotalBytes(""))
	sec := func(d time.Duration) float64 { return d.Seconds() }
	for _, res := range results {
		rep.VirtS += sec(res.Elapsed())
		l["recovery_virt_s"] += sec(res.MaxPhase(core.PhaseRecovery))
		for _, ph := range phaseNames {
			l["core.virt_s."+ph] += sec(res.MaxPhase(core.Phase(ph)))
		}
		rb := res.RecoveryTotal()
		l["core.recovery_virt_s.init"] += sec(rb.Init)
		l["core.recovery_virt_s.load"] += sec(rb.LoadCkpt)
		l["core.recovery_virt_s.skip"] += sec(rb.Skip)
		l["core.recovery_virt_s.reprocess"] += sec(rb.Reprocess)
		for _, m := range res.Ranks {
			if m == nil {
				continue
			}
			l["core.cpu_main_virt_s"] += sec(m.CPUMain)
			l["core.cpu_copier_virt_s"] += sec(m.CPUCopier)
			l["core.io_wait_virt_s"] += sec(m.IOWait)
			l["core.net_wait_virt_s"] += sec(m.NetWait)
			l["core.records_mapped"] += float64(m.RecordsMapped)
			l["core.groups_reduced"] += float64(m.GroupsReduced)
			l["core.ckpt_frames"] += float64(m.CkptFrames)
			l["core.ckpt_bytes"] += float64(m.CkptBytes)
			l["core.shuffle_bytes"] += float64(m.ShuffleBytes)
			l["core.records_skipped"] += float64(m.RecordsSkipped)
			l["core.records_restored"] += float64(m.RecordsRestored)
			l["core.recovered_bytes"] += float64(m.RecoveredBytes)
		}
	}
}

// sinkStats is what the analysis pipeline found.
type sinkStats struct {
	events     int
	jsonlBytes int
	dropped    int64
	badLines   int
	flowBreak  string // first flow violation, "" when the pairing holds
	crit       *critpath.Report
	critErr    error
	snap       metrics.Snapshot
	ioErr      error
	snapshots  int
	stalls     int
}

// sinks runs the whole analysis pipeline over a finished run: trace JSONL
// write and read back, summary, flow check and critical path, the metrics
// snapshot through OpenMetrics and the SLO evaluation, and the introspection
// snapshots through their JSONL. When timed (wc-observed) each stage is a
// span inside wall_s; otherwise it is bookkeeping of a traced repetition.
func (r *repRun) sinks(c *cluster.Cluster, results []*core.Result, timed bool) *sinkStats {
	st := new(sinkStats)
	stage := func(name string, fn func()) {
		if timed {
			r.rep.WallS += r.span(name, fn)
		} else {
			fn()
		}
	}
	keep := func(err error) {
		if err != nil && st.ioErr == nil {
			st.ioErr = err
		}
	}
	var events []trace.Event
	if timed {
		var buf bytes.Buffer
		stage("trace_write", func() { keep(c.Trace.WriteJSONL(&buf)) })
		st.jsonlBytes = buf.Len()
		stage("trace_read", func() {
			evs, rr, err := trace.ReadJSONL(&buf)
			keep(err)
			if rr != nil {
				st.badLines = rr.BadLines
			}
			events = evs
		})
	} else {
		// Bookkeeping only: count the bytes and analyze the live events,
		// without holding or re-reading a JSONL image of a large trace.
		var n countWriter
		keep(c.Trace.WriteJSONL(&n))
		st.jsonlBytes = int(n)
		events = append(c.Trace.Events(), c.Trace.DropEvents()...)
	}
	st.events = len(events)
	stage("trace_analyze", func() {
		st.dropped = trace.Summarize(events).Dropped()
		if fr := trace.CheckFlows(events); !fr.OK() {
			st.flowBreak = fr.Violations[0].String()
		}
		st.crit, st.critErr = critpath.Analyze(events)
	})
	stage("metrics_io", func() {
		core.ExportResultMetrics(c.Metrics, results)
		critpath.Export(c.Metrics, st.crit)
		var mbuf bytes.Buffer
		keep(metrics.WriteOpenMetrics(&mbuf, c.Metrics.Snapshot()))
		snap, err := metrics.ParseOpenMetrics(&mbuf)
		keep(err)
		metrics.Evaluate(snap, metrics.DefaultSLO())
		st.snap = snap
	})
	if c.Introspect != nil {
		stage("introspect_io", func() {
			c.Introspect.Final()
			var ibuf bytes.Buffer
			keep(c.Introspect.WriteJSONL(&ibuf))
			lines, rr, err := introspect.ReadJSONL(&ibuf)
			keep(err)
			if rr != nil {
				st.badLines += rr.BadLines
			}
			snaps, stalls := introspect.SplitLines(lines)
			st.snapshots, st.stalls = len(snaps), len(stalls)
		})
	}
	return st
}

// countWriter counts the bytes written to it.
type countWriter int

func (n *countWriter) Write(p []byte) (int, error) {
	*n += countWriter(len(p))
	return len(p), nil
}

// check applies the oracle's instrumentation conditions. A resubmitted job
// is a second world on the same tracer and numbers its messages from 1
// again, so the flow pairing is only meaningful over a single launch.
func (st *sinkStats) check(rep *Rep, scen string, resubmitted bool) {
	if st.ioErr != nil {
		rep.failf("%s: sink: %v", scen, st.ioErr)
	}
	if st.dropped > 0 {
		rep.failf("%s: tracer dropped %d events", scen, st.dropped)
	}
	if st.badLines > 0 {
		rep.failf("%s: %d JSONL lines did not read back", scen, st.badLines)
	}
	if st.flowBreak != "" && !resubmitted {
		rep.failf("%s: trace flow check: %s", scen, st.flowBreak)
	}
	if st.critErr != nil {
		rep.failf("%s: critpath: %v", scen, st.critErr)
	} else if st.crit.Unreliable {
		rep.failf("%s: critical-path report is unreliable", scen)
	}
	if st.stalls > 0 {
		rep.failf("%s: introspection reported %d stalls", scen, st.stalls)
	}
	if st.snap.Total("ftmr_mpi_sends") == 0 {
		rep.failf("%s: registry has no ftmr_mpi_sends", scen)
	}
}

func (st *sinkStats) account(r *repRun) {
	l := r.rep.Layer
	l["trace.events"] += float64(st.events)
	l["trace.jsonl_bytes"] += float64(st.jsonlBytes)
	l["trace.dropped"] += float64(st.dropped)
	l["introspect.snapshots"] += float64(st.snapshots)
	for _, f := range st.snap.Families {
		l["metrics.series"] += float64(len(f.Series))
	}
	for _, n := range []string{"sends", "send_bytes", "collectives", "revokes", "shrinks", "agrees"} {
		l["mpi."+n] += st.snap.Total("ftmr_mpi_" + n)
	}
	if st.crit != nil {
		for cat, d := range st.crit.ByCategory {
			r.critBy[cat] += d
		}
		r.critSpan += st.crit.Makespan
	}
}
