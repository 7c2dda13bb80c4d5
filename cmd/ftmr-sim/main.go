// Command ftmr-sim runs one MapReduce job on the simulated cluster with a
// configurable workload, fault-tolerance model, and failure injection, and
// prints the job's outcome and phase profile.
//
// Examples:
//
//	ftmr-sim -workload wordcount -procs 64 -model wc -kill-phase reduce
//	ftmr-sim -workload blast -procs 128 -model cr -kill-phase map -restart
//	ftmr-sim -workload pagerank -procs 64 -model nwc -kills 4 -kill-every 20ms
//	ftmr-sim -workload wordcount -procs 8 -kill-phase map -report run/
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
	"ftmrmpi/internal/failure"
	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/scenario"
	"ftmrmpi/internal/trace"
	"ftmrmpi/internal/trace/critpath"
	"ftmrmpi/internal/workloads"
)

func parseModel(s string) (core.Model, error) {
	switch s {
	case "none", "mrmpi":
		return core.ModelNone, nil
	case "cr":
		return core.ModelCheckpointRestart, nil
	case "wc":
		return core.ModelDetectResumeWC, nil
	case "nwc":
		return core.ModelDetectResumeNWC, nil
	}
	return 0, fmt.Errorf("unknown model %q (none|cr|wc|nwc)", s)
}

// parseOutage parses a "begin,end" pair of virtual-time durations.
func parseOutage(s string) (begin, end time.Duration, err error) {
	i := strings.IndexByte(s, ',')
	if i < 0 {
		return 0, 0, fmt.Errorf(`-outage wants "begin,end" durations, got %q`, s)
	}
	if begin, err = time.ParseDuration(s[:i]); err != nil {
		return 0, 0, fmt.Errorf("-outage begin: %v", err)
	}
	if end, err = time.ParseDuration(s[i+1:]); err != nil {
		return 0, 0, fmt.Errorf("-outage end: %v", err)
	}
	if end <= begin {
		return 0, 0, fmt.Errorf("-outage window %q is empty (end must exceed begin)", s)
	}
	return begin, end, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses and validates args, runs the job and
// returns the exit status (0 clean, 1 unhealthy run or output failure, 2
// usage error or a -report directory it cannot write — one line on stderr,
// never a panic).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftmr-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "wordcount", "wordcount | pagerank | bfs | blast")
		procs     = fs.Int("procs", 64, "number of MPI ranks")
		model     = fs.String("model", "wc", "fault tolerance: none | cr | wc | nwc")
		interval  = fs.Int("ckpt-interval", 100, "records per checkpoint")
		gran      = fs.String("granularity", "record", "checkpoint granularity: record | chunk")
		direct    = fs.Bool("ckpt-direct-pfs", false, "write checkpoints straight to the PFS")
		prefetch  = fs.Bool("prefetch", false, "enable recovery prefetching")
		killPhase = fs.String("kill-phase", "", "kill one rank in this phase: map | reduce")
		killRank  = fs.Int("kill-rank", -1, "rank to kill (default procs/2)")
		kills     = fs.Int("kills", 0, "continuous failures: total ranks to kill")
		killEvery = fs.Duration("kill-every", 20*time.Millisecond, "continuous failure interval")
		restart   = fs.Bool("restart", false, "after an aborted CR run, resubmit with Resume")
		lbModel   = fs.String("lb-model", "static", "load-balancer regression model: static | trace")
		iters     = fs.Int("iters", 2, "pagerank iterations, at least 1 (bfs ignores it: it runs to convergence, 20 levels at most)")
		asJSON    = fs.Bool("json", false, "emit results as JSON lines")
		chaos     = fs.Int("chaos", 0, "chaos mode: random kills (plus one aimed inside recovery)")
		chaosSeed = fs.Int64("chaos-seed", 1, "seed for chaos kills and storage faults")
		chaosWin  = fs.Duration("chaos-window", 2*time.Second, "virtual-time window for chaos kills")
		stFaults  = fs.Bool("storage-faults", false, "inject seeded storage faults (torn writes, bit flips, read errors, latency spikes)")
		replicaK  = fs.Int("replica-k", 0, "diskless replica tier: push checkpoint frames to k ring-successor peers (0 disables)")
		ftModel   = fs.String("ft-model", "cr", "replication execution model: cr | replicate | partial (replicate/partial require -model wc or nwc)")
		repFrac   = fs.Float64("replica-fraction", 0, "fraction of primary slots given a shadow under -ft-model=partial (0: default 0.5)")
		outage    = fs.String("outage", "", `PFS whole-tier outage window as "begin,end" virtual-time durations (e.g. "100ms,400ms")`)
		report    = fs.String("report", "", "turn every observation plane on and write the run report to this directory (its parent must exist): "+
			traceFile+" and "+introspectFile+" streamed during the run, "+metricsFile+" and "+critpathFile+" after it")

		introspectInt = fs.Duration("introspect-interval", 100*time.Millisecond, "virtual-time snapshot cadence for the introspection plane, which only -report turns on")
		health        = fs.Bool("health", false, "print the SLO health report and exit 1 when the gate fails")
	)
	slo := metrics.DefaultSLO()
	slo.Flags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag package has already printed the reason
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "ftmr-sim: "+format+"\n", a...)
		return 2
	}
	m, err := parseModel(*model)
	if err != nil {
		return usage("%v", err)
	}
	lbm, err := core.ParseLBModel(*lbModel)
	if err != nil {
		return usage("%v", err)
	}
	ftm, err := core.ParseFTModel(*ftModel)
	if err != nil {
		return usage("%v", err)
	}
	wl, wlOK := map[string]scenario.Workload{
		"wordcount": scenario.Wordcount(workloads.DefaultWordcount()),
		"blast":     scenario.Blast(workloads.DefaultBlast()),
		"pagerank":  scenario.PageRank(workloads.DefaultPageRank(), *iters),
		"bfs":       scenario.BFS(workloads.DefaultBFS(), 20),
	}[*workload]
	killPh, killPhOK := map[string]core.Phase{"map": core.PhaseMap, "reduce": core.PhaseReduce}[*killPhase]
	var outBegin, outEnd time.Duration
	if *outage != "" {
		if outBegin, outEnd, err = parseOutage(*outage); err != nil {
			return usage("%v", err)
		}
	}
	// Everything the layers below would answer with a panic, or silently
	// ignore, is refused here.
	cfg := cluster.Default()
	slots := cfg.Nodes * cfg.PPN
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case fs.NArg() > 0:
		return usage("unexpected argument %q", fs.Arg(0))
	case *procs < 1 || *procs > slots:
		return usage("-procs must be between 1 and %d (the simulated cluster's slots), got %d", slots, *procs)
	case *killRank < -1 || *killRank >= *procs:
		return usage("-kill-rank %d is not a rank of a %d-rank job", *killRank, *procs)
	case *killPhase != "" && !killPhOK:
		return usage("unknown -kill-phase %q (map|reduce)", *killPhase)
	case *killRank >= 0 && *killPhase == "":
		return usage("-kill-rank %d kills no rank without -kill-phase (map|reduce)", *killRank)
	case *chaos > 0 && *kills > 0, (*chaos > 0 || *kills > 0) && *killPhase != "":
		return usage("-chaos, -kills and -kill-phase each choose how ranks die: set one of them")
	case ftm.Replicating() && !m.DetectResume():
		return usage("-ft-model %s requires -model wc or nwc, got -model %s", *ftModel, *model)
	case *replicaK < 0:
		return usage("-replica-k must not be negative, got %d", *replicaK)
	case *replicaK > 0 && ftm.Replicating():
		return usage("-replica-k %d has no effect under -ft-model %s: the shadows already mirror what the replica tier would hold", *replicaK, *ftModel)
	case *replicaK > 0 && !m.Checkpointing():
		return usage("-replica-k %d requires a checkpointing model (-model cr or wc), got -model %s", *replicaK, *model)
	case *repFrac != 0 && ftm != core.FTModelPartial:
		return usage("-replica-fraction requires -ft-model partial, got -ft-model %s", *ftModel)
	case *repFrac < 0 || *repFrac > 1:
		return usage("-replica-fraction must be between 0 and 1, got %v", *repFrac)
	case *restart && m != core.ModelCheckpointRestart:
		return usage("-restart resubmits an aborted checkpoint/restart job: it requires -model cr, got -model %s", *model)
	case *interval < 1:
		return usage("-ckpt-interval must be at least 1 record, got %d", *interval)
	case *iters < 1:
		return usage("-iters must be at least 1, got %d", *iters)
	case *kills < 0 || *chaos < 0:
		return usage("-kills and -chaos must not be negative")
	case *kills > 0 && *killEvery <= 0:
		return usage("-kill-every must be positive with -kills, got %v", *killEvery)
	case *chaos > 0 && *chaosWin <= 0:
		return usage("-chaos-window must be positive with -chaos, got %v", *chaosWin)
	case *introspectInt <= 0:
		return usage("-introspect-interval must be positive, got %v", *introspectInt)
	case set["introspect-interval"] && *report == "":
		return usage("-introspect-interval has no effect without -report: only the run report turns the introspection plane on")
	case *gran != "record" && *gran != "chunk":
		return usage("unknown -granularity %q (record|chunk)", *gran)
	case !wlOK:
		return usage("unknown -workload %q (wordcount|pagerank|bfs|blast)", *workload)
	}

	var files map[string]*os.File // the run report's, by name
	if *report != "" {
		if files, err = createReport(*report); err != nil {
			return usage("-report: %v", err)
		}
	}

	base := core.Spec{
		Model:           m,
		CkptInterval:    *interval,
		Prefetch:        *prefetch,
		LoadBalance:     true,
		LBModel:         lbm,
		ReplicaK:        *replicaK,
		FTModel:         ftm,
		ReplicaFraction: *repFrac,
	}
	if *gran == "chunk" {
		base.Granularity = core.GranChunk
	}
	if *direct {
		base.CkptLocation = core.LocDirectPFS
	}
	sc := scenario.Scenario{Name: "job", Procs: *procs, Workload: wl, Spec: base}
	if *restart {
		sc.Retries = 1
	}
	// The planes must exist before the launch: instruments and probes bind
	// per rank at spawn time.
	sc.Observe = func(clus *cluster.Cluster) {
		if files != nil {
			clus.Trace = trace.New(clus.Sim, 0)
			clus.Trace.StreamJSONL(files[traceFile])
		}
		if files != nil || *health {
			clus.Metrics = metrics.New(clus.Sim)
		}
		if files != nil {
			pl := introspect.New(clus.Sim, *introspectInt)
			clus.Introspect = pl
			pl.Outages = clus.Outages
			pl.StreamJSONL(files[introspectFile])
		}
	}
	sc.Inject = func(h *core.Handle, attempt int) {
		if attempt > 0 {
			return
		}
		if *stFaults {
			// Attach after input generation so the corpus itself is pristine;
			// everything the job reads and writes from here on can fault.
			failure.StorageFaults(h.Clus, *chaosSeed)
		}
		if *outage != "" {
			failure.PFSOutage(h.Clus, outBegin, outEnd)
		}
		if *chaos > 0 {
			failure.Chaos(h, *chaosSeed, *chaos, *chaosWin)
		}
		if *kills > 0 {
			failure.Continuous(h.World, *killEvery, *kills, rand.New(rand.NewSource(1)).Intn)
		}
	}
	if killPhOK {
		rank := *killRank
		if rank < 0 {
			rank = *procs / 2
		}
		sc.Kills = []scenario.Kill{{Rank: rank, Phase: killPh, Delay: time.Millisecond}}
	}
	o := scenario.Run(sc)
	clus := o.Clus

	printResult := func(res *core.Result) {
		if *asJSON {
			enc := json.NewEncoder(stdout)
			_ = enc.Encode(res.Summary())
			return
		}
		fmt.Fprintf(stdout, "job %-24s aborted=%-5v elapsed=%8.3fs failed-ranks=%v\n",
			res.Spec.JobID, res.Aborted, res.Elapsed().Seconds(), res.FailedRanks)
		for _, ph := range []core.Phase{core.PhaseMap, core.PhaseShuffle, core.PhaseConvert, core.PhaseReduce, core.PhaseRecovery} {
			if d := res.MaxPhase(ph); d > 0 {
				fmt.Fprintf(stdout, "    %-9s max %8.3fs   aggregate %9.3fs\n", ph, d.Seconds(), res.PhaseTotal(ph).Seconds())
			}
		}
	}
	for i, h := range o.Attempts {
		if i > 0 {
			fmt.Fprintln(stdout, "resubmitting with Resume...")
		}
		for _, res := range h.Results() {
			printResult(res)
		}
	}
	// Post-run capture: if ranks deadlocked, the heap drained with them still
	// parked and this snapshot names the cycle.
	clus.Introspect.Final()
	if clus.Introspect != nil && clus.Metrics != nil {
		clus.Metrics.GaugeL(metrics.MIntrospectStalls,
			"stall reports from the introspection plane",
			"kind", "total").Set(float64(len(clus.Introspect.Stalls())))
	}

	if *stFaults || *outage != "" {
		s := clus.PFS.Faults.Stats
		for _, n := range clus.Nodes {
			if n.Local.Faults != nil {
				ls := n.Local.Faults.Stats
				s.TornWrites += ls.TornWrites
				s.BitFlips += ls.BitFlips
				s.ReadErrors += ls.ReadErrors
				s.ReadSpikes += ls.ReadSpikes
				s.WriteSpikes += ls.WriteSpikes
				s.OutageOps += ls.OutageOps
			}
		}
		fmt.Fprintf(stderr, "storage faults injected: torn=%d bitflip=%d readerr=%d rspike=%d wspike=%d outage-ops=%d\n",
			s.TornWrites, s.BitFlips, s.ReadErrors, s.ReadSpikes, s.WriteSpikes, s.OutageOps)
	}
	var critRep *critpath.Report
	if files != nil {
		critRep, err = critPath(clus.Trace, files[traceFile], files[critpathFile])
	}
	core.ExportResultMetrics(clus.Metrics, o.Results())
	critpath.Export(clus.Metrics, critRep)
	final := clus.Metrics.Snapshot()
	if files != nil {
		if err == nil {
			err = metrics.WriteOpenMetrics(files[metricsFile], final)
		}
		if ferr := clus.Introspect.FlushStream(); err == nil {
			err = ferr
		}
		for _, f := range files {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "report: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "report written to %s\n", *report)
	}

	code := 0
	if *health {
		hl := metrics.Evaluate(final, slo)
		hl.Render(stdout)
		if hl.Breached() {
			code = 1
		}
	}
	if stalls := clus.Introspect.Stalls(); len(stalls) > 0 {
		fmt.Fprintf(stderr, "introspect: %d stall report(s) (%s)", len(stalls), stalls[0].Reason)
		if files != nil {
			fmt.Fprintf(stderr, "; inspect with: ftmr-trace inspect %s", files[introspectFile].Name())
		}
		fmt.Fprintln(stderr)
		code = 1
	}
	return code
}

// The run report's files, which -report writes under these fixed names.
const (
	traceFile      = "trace.jsonl"
	introspectFile = "introspect.jsonl"
	metricsFile    = "metrics.om"
	critpathFile   = "critpath.txt"
)

// createReport creates dir, unless it already is a directory, and the run
// report's files in it, before the job is built: a directory that cannot be
// written is refused before the run instead of after it.
func createReport(dir string) (map[string]*os.File, error) {
	if err := os.Mkdir(dir, 0o755); err != nil && !errors.Is(err, os.ErrExist) {
		return nil, err
	}
	files := make(map[string]*os.File)
	for _, name := range []string{traceFile, introspectFile, metricsFile, critpathFile} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			for _, f := range files {
				f.Close()
			}
			return nil, err
		}
		files[name] = f
	}
	return files, nil
}

// critPath flushes the trace streamed to tf, reads it back and writes to out
// the critical-path report of what it read: the computation `ftmr-trace
// critpath` makes of the same file, on the same bytes. It returns a nil
// report, and no error, for a trace with no path to analyze.
func critPath(tr *trace.Tracer, tf, out *os.File) (*critpath.Report, error) {
	if err := tr.FlushStream(); err != nil {
		return nil, err
	}
	if _, err := tf.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	events, rr, err := trace.ReadJSONL(tf)
	if err == nil {
		err = rr.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", tf.Name(), err)
	}
	rep, err := critpath.Analyze(events)
	if err != nil {
		// A run that aborted has no final commit to anchor a path on: the
		// report says so rather than going missing.
		_, err = fmt.Fprintln(out, err)
		return nil, err
	}
	w := bufio.NewWriter(out)
	rep.Render(w, 10)
	return rep, w.Flush()
}
