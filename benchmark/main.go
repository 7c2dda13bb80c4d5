package benchmark

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Doc is the document ftmr-perf writes with -out and compares with
// -compare: the metric tables, the host, and per workload every run made,
// the end-to-end statistics, the traced repetition's per-layer values and
// the determinism digests. It claims no gain.
type Doc struct {
	Schema    int                `json:"schema"`
	Host      Host               `json:"host"`
	Seed      int64              `json:"seed"`
	Smoke     bool               `json:"smoke"`
	Workloads []WorkloadInfo     `json:"workload_info"`
	EndToEnd  []Metric           `json:"end_to_end"`
	PerLayer  []Metric           `json:"per_layer"`
	Results   []*WorkloadResult  `json:"results"`
	Probes    map[string]float64 `json:"probes,omitempty"`
	Claim     *string            `json:"claim"` // always null: the benchmark claims no gain
}

// Host records the load model's fixed points: one process at a time on this
// many processors.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	LoadAvg    string `json:"loadavg_at_start"`
}

func hostInfo() Host {
	h := Host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", LoadAvg: loadavg()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func isProbe(name string) bool { return strings.Contains(name, ".probe.") }

// statName names the statistic an end-to-end metric is reported by.
func statName(m Metric) string {
	if m.Best {
		return "best"
	}
	return "median"
}

// Main is the ftmr-perf program; it returns the exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftmr-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run only this workload (default: all four, in fixed order)")
		seed     = fs.Int64("seed", 1, "input seed: the generators and the kill victims all derive from it")
		seconds  = fs.Float64("seconds", 0, "measure each workload for this long (default: -reps)")
		reps     = fs.Int("reps", 0, "untraced repetitions per workload (default 11 when -seconds is unset)")
		traceSel = fs.Int("trace", -1, "0: end-to-end metrics only; 1: the traced repetition and the layer probes only; default both")
		out      = fs.String("out", "", "write the results document to this file")
		compare  = fs.Bool("compare", false, "compare two results documents: ftmr-perf -compare old.json new.json")
		smoke    = fs.Bool("smoke", false, "tiny sizes, one repetition, no child processes: a self-test, not a measurement")
		child    = fs.String("child", "", "internal: run one repetition (rep) or the layer probes (probes) and print JSON")
		traced   = fs.Bool("traced", false, "internal: with -child rep, the traced repetition")
		id       = fs.Int("id", 0, "internal: with -child rep, the repetition id")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	errorf := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "ftmr-perf: "+format+"\n", a...)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return errorf("-compare wants two files: old.json new.json")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	switch *child {
	case "":
	case "rep":
		rep, err := runRep(*workload, *seed, fullSizes, *traced, *id)
		if err != nil {
			return errorf("%v", err)
		}
		return emit(stdout, rep, errorf)
	case "probes":
		return emit(stdout, runProbes(fullSizes.probeDiv), errorf)
	default:
		return errorf("unknown -child %q", *child)
	}

	names := make([]string, 0, len(Workloads))
	for _, w := range Workloads {
		if *workload == "" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return errorf("unknown workload %q", *workload)
	}
	if *traceSel < -1 || *traceSel > 1 {
		return errorf("-trace is 0 or 1")
	}

	rn := &runner{sz: fullSizes, seed: *seed, stderr: stderr}
	pl := plan{reps: *reps, seconds: time.Duration(*seconds * float64(time.Second)), minReps: 3, traced: *traceSel != 0}
	switch {
	case *smoke:
		rn.sz = smokeSizes
		pl.reps, pl.seconds = 1, 0
	default:
		exe, err := os.Executable()
		if err != nil {
			return errorf("cannot find my own executable to start repetitions: %v", err)
		}
		rn.exe = exe
		if pl.reps == 0 && pl.seconds == 0 {
			pl.reps = 11
		}
	}
	if *traceSel == 1 && pl.reps == 0 {
		// The traced run still needs an untraced base for the tracing
		// overhead and ns/event: a third of the time goes to it.
		pl.seconds /= 3
		pl.minReps = 2
	}

	doc := &Doc{Schema: 1, Host: hostInfo(), Seed: *seed, Smoke: *smoke,
		Workloads: Workloads, EndToEnd: EndToEnd, PerLayer: PerLayer}
	fmt.Fprintf(stdout, "ftmr-perf seed=%d nproc=%d GOMAXPROCS=%d %s commit=%s loadavg=%q\n",
		*seed, doc.Host.NProc, doc.Host.GOMAXPROCS, doc.Host.GoVersion, doc.Host.Commit, doc.Host.LoadAvg)
	fmt.Fprintln(stdout, "load model: closed loop, one repetition at a time, each in a fresh process with GOMAXPROCS=1; few runs, so no percentile above the median is reported; host times are the best repetition, because the shared host only ever adds time")
	for _, name := range names {
		res := rn.measure(name, pl)
		doc.Results = append(doc.Results, res)
		printWorkload(stdout, res, *traceSel)
	}
	if pl.traced {
		probes, err := rn.probes()
		if err != nil {
			return errorf("layer probes: %v", err)
		}
		doc.Probes = probes
		printProbes(stdout, probes)
	}

	failed := 0
	for _, r := range doc.Results {
		failed += r.RunsFailed
		for _, f := range r.Failures {
			fmt.Fprintf(stdout, "FAILED %s: %s\n", r.Name, f)
		}
	}
	if *out != "" {
		if msg := unsteady(doc); msg != "" && !*smoke {
			return errorf("not writing %s: %s", *out, msg)
		}
		b, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return errorf("%v", err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return errorf("%v", err)
		}
		fmt.Fprintf(stdout, "results written to %s; claim: null\n", *out)
	}
	if len(names) == 1 && *traceSel >= 0 {
		return contractLine(stdout, doc, *traceSel, errorf)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func emit(w io.Writer, v any, errorf func(string, ...any) int) int {
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return errorf("%v", err)
	}
	return 0
}

// probes runs the layer probes, in a fresh process unless under -smoke.
func (rn *runner) probes() (map[string]float64, error) {
	if rn.exe == "" {
		return runProbes(rn.sz.probeDiv), nil
	}
	var out map[string]float64
	_, err := rn.child(150*time.Second, &out, "-child", "probes")
	return out, err
}

// unsteady names the first host metric whose min-max spread is more than
// twice its bound: such a set of runs is not written as a result.
func unsteady(doc *Doc) string {
	for _, r := range doc.Results {
		for _, m := range EndToEnd {
			if s, ok := r.EndToEnd[m.Name]; ok && m.Clock == "host" && m.Name != "setup_s" &&
				s.spread() > 2*m.Bound && s.Max-s.Min > m.Floor {
				return fmt.Sprintf("%s %s spreads %.1f%% (min %.4g, max %.4g) over %d runs, more than twice its %.0f%% bound: the host is too noisy",
					r.Name, m.Name, 100*s.spread(), s.Min, s.Max, s.N, 100*m.Bound)
			}
		}
	}
	return ""
}

func printWorkload(w io.Writer, r *WorkloadResult, traceSel int) {
	fmt.Fprintf(w, "\n== %s: %d runs, %d failed ==\n", r.Name, r.RunsTotal, r.RunsFailed)
	for _, run := range r.Runs {
		kind := "timed "
		if run.Traced {
			kind = "traced"
		}
		fmt.Fprintf(w, "  run %2d %s process %.3fs wall_s %.4f %s\n", run.ID, kind, run.ChildS, run.WallS, strings.Join(run.Failures, "; "))
	}
	d := r.Determinism
	fmt.Fprintf(w, "  determinism: virt_s=%.9f vtime.events=%d output_sha256=%s\n", d.VirtS, d.Events, d.Digest)
	if traceSel != 1 {
		for _, m := range EndToEnd {
			s := r.EndToEnd[m.Name]
			fmt.Fprintf(w, "  %-28s %14.6g %-6s %-7s %s is better; %s of n=%d, median %.6g, min %.6g, max %.6g, spread %.1f%%, bound %.0f%%\n",
				m.Name, s.of(m), m.Unit, m.Clock, m.Better, statName(m), s.N, s.Median, s.Min, s.Max, 100*s.spread(), 100*m.Bound)
		}
	}
	if r.PerLayer != nil {
		for _, m := range PerLayer {
			if v, ok := r.PerLayer[m.Name]; ok {
				fmt.Fprintf(w, "  %-44s %16.6g %-6s %s\n", m.Name, v, m.Unit, m.Clock)
			}
		}
		fmt.Fprintln(w, "  spans of the traced repetition (id name parent start end):")
		for _, s := range r.Spans {
			fmt.Fprintf(w, "    %d %-14s %-14s %9.4f %9.4f\n", s.ID, s.Name, s.Parent, s.Start, s.End)
		}
	}
}

func printProbes(w io.Writer, probes map[string]float64) {
	fmt.Fprintln(w, "\n== layer probes (best of 3) ==")
	for _, m := range PerLayer {
		if v, ok := probes[m.Name]; ok {
			fmt.Fprintf(w, "  %-52s %14.6g %-6s %s\n", m.Name, v, m.Unit, m.Clock)
		}
	}
}

// contractLine prints the one-line JSON result the benchmark driver reads:
// every end-to-end metric with -trace 0, every per-layer metric with
// -trace 1.
func contractLine(w io.Writer, doc *Doc, traceSel int, errorf func(string, ...any) int) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	r := doc.Results[0]
	metrics := map[string]value{}
	if traceSel == 0 {
		if r.EndToEnd == nil {
			return errorf("%s: no repetition passed", r.Name)
		}
		for _, m := range EndToEnd {
			metrics[m.Name] = value{r.EndToEnd[m.Name].of(m), m.Unit}
		}
	} else {
		if r.PerLayer == nil {
			return errorf("%s: the traced repetition did not pass", r.Name)
		}
		for _, m := range PerLayer {
			v, ok := r.PerLayer[m.Name]
			if !ok {
				v = doc.Probes[m.Name]
			}
			metrics[m.Name] = value{v, m.Unit}
		}
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.RunsFailed == 0, r.RunsTotal, r.RunsFailed, metrics}
	b, err := json.Marshal(line)
	if err != nil {
		return errorf("%v", err)
	}
	fmt.Fprintf(w, "%s\n", b)
	return 0
}
