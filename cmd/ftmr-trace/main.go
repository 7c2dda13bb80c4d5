// Command ftmr-trace is the offline half of the observation planes: it
// analyzes the files ftmr-sim -report DIR writes — the JSONL trace
// (trace.jsonl, DESIGN.md §"Trace wire format v2"), the introspection stream
// (introspect.jsonl) and the OpenMetrics snapshot (metrics.om). Its seven
// verbs (diff, summarize, flows, critpath, chrome, inspect, health) are the
// verbs table below, which `ftmr-trace` with no arguments prints.
//
// diff and summarize pick their reader from the file itself: a file whose
// first non-blank byte is '#' is an OpenMetrics snapshot, anything else goes
// to the JSONL reader, which rejects what is no trace. There is no format
// flag to get wrong.
//
// Exit status: 0 clean; 1 a finding (divergence, difference, violations,
// regression, stalls, a failed gate); 2 usage or unreadable input, with one
// line on stderr — two files of different kinds and a verb its file's kind
// does not support included. A damaged JSONL file (malformed lines after its
// header, e.g. a trace cut short by a crash) is reported on stderr and
// analysis proceeds on the lines that decoded; a file whose first non-blank
// line is not its format's header at the current schema is exit 2.
package main

import (
	"bufio"
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/jsonl"
	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/trace"
	"ftmrmpi/internal/trace/critpath"
)

// The two kinds of file: what a source is, and (or-ed) what a verb reads.
const (
	jsonlFile = 1 << iota // a trace or an introspection stream
	omFile                // an OpenMetrics snapshot
)

var kindName = map[int]string{jsonlFile: "a JSONL stream", omFile: "an OpenMetrics snapshot"}

// verb is one subcommand. setup registers its flags and returns what it does
// with its opened file operands; run parses, opens and closes around that.
type verb struct {
	name  string
	files int    // file operands it takes
	reads int    // the kinds of file it reads
	args  string // synopsis after the name
	help  string
	setup func(fs *flag.FlagSet) func(e *env, in []*source) int
}

// verbs is the one subcommand table: usage text and dispatch both read it.
var verbs = []verb{
	{"diff", 2, jsonlFile | omFile, "[-tol duration] [-max n] A B",
		"two traces: first divergence + per-phase vt deltas; two snapshots:\n" +
			"differing families and series; same-seed runs must diff clean", cmdDiff},
	{"summarize", 1, jsonlFile | omFile, "[-skew] F",
		"a trace: per-rank aggregates derived from the event stream; a\n" +
			"snapshot: families, series, world totals", cmdSummarize},
	{"flows", 1, jsonlFile, "T.jsonl",
		"validate send->recv message pairing via flow ids", cmdFlows},
	{"critpath", 1, jsonlFile, "[-top n] [-threshold f] [-against B.jsonl] T.jsonl",
		"attribute the virtual-time critical path; with -against, diff two\n" +
			"runs' path composition and flag regressed categories", cmdCritPath},
	{"chrome", 1, jsonlFile, "T.jsonl",
		"render a trace as Chrome trace_event JSON on stdout, for\n" +
			"chrome://tracing or ui.perfetto.dev", cmdChrome},
	{"inspect", 1, jsonlFile, "[-waitgraph] I.jsonl",
		"render an introspection stream (ftmr-sim -report's introspect.jsonl):\n" +
			"final wait-state table + stall reports, or the wait-for graph as DOT", cmdInspect},
	{"health", 1, omFile, "[-slo-<bound> f]... S.om",
		"evaluate the SLO gate under ftmr-sim -health's nine bounds\n" +
			"(health -h lists them; negative bound = report-only)", cmdHealth},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it finds the verb, parses its flags, opens its
// files, lets it work and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	var v *verb
	for i := range verbs {
		if len(args) > 0 && verbs[i].name == args[0] {
			v = &verbs[i]
		}
	}
	if v == nil {
		if len(args) > 0 {
			fmt.Fprintf(stderr, "ftmr-trace: unknown command %q\n", args[0])
		}
		fmt.Fprintf(stderr, "usage: ftmr-trace <command> [flags] <file>...\n\ncommands:\n")
		for _, v := range verbs {
			fmt.Fprintf(stderr, "  %s %s\n        %s\n", v.name, v.args, strings.ReplaceAll(v.help, "\n", "\n        "))
		}
		fmt.Fprintf(stderr, "\na file is read as what it is: an OpenMetrics snapshot starts with '#', a trace or introspection stream does not\n"+
			"exit status: 0 clean, 1 divergence/difference/violations/regression/stalls/failed gate, 2 usage or unreadable input\n")
		return 2
	}
	e := &env{verb: v, stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet(v.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: ftmr-trace %s %s\n", v.name, v.args)
		fs.PrintDefaults()
	}
	work := v.setup(fs)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag package has already printed the reason
	}
	if fs.NArg() != v.files {
		fmt.Fprintf(stderr, "usage: ftmr-trace %s %s\n", v.name, v.args)
		return 2
	}
	in := make([]*source, v.files)
	for i, path := range fs.Args() {
		src, err := e.open(path)
		if err != nil {
			return e.fail(err)
		}
		defer src.Close()
		in[i] = src
	}
	return work(e, in)
}

// env is the verb being run, where it prints and how it fails.
type env struct {
	*verb
	stdout, stderr io.Writer
}

func (e *env) printf(format string, a ...any) { fmt.Fprintf(e.stdout, format, a...) }

// fail reports unusable arguments or input: one line, exit status 2.
func (e *env) fail(err error) int {
	fmt.Fprintln(e.stderr, "ftmr-trace:", err)
	return 2
}

// source is an opened input file and the kind its first non-blank byte
// declares.
type source struct {
	path string
	kind int // omFile when that byte is '#', jsonlFile otherwise
	*bufio.Reader
	io.Closer
}

// open opens a file the verb is to read, consuming nothing of it, and refuses
// a kind the verb does not read.
func (e *env) open(path string) (*source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	src := &source{path: path, kind: jsonlFile, Reader: bufio.NewReader(f), Closer: f}
	for n := 1; ; n++ {
		head, err := src.Peek(n)
		if err != nil { // empty, blank or unreadable: the JSONL reader says which
			break
		}
		if c := head[n-1]; c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			if c == '#' {
				src.kind = omFile
			}
			break
		}
	}
	if e.reads&src.kind == 0 {
		f.Close()
		return nil, fmt.Errorf("%s reads %s; %s is %s", e.name, kindName[e.reads], path, kindName[src.kind])
	}
	return src, nil
}

// readJSONL reads a JSONL source with its format's reader, reporting (not
// failing on) counted line damage.
func readJSONL[T any](e *env, src *source, read func(io.Reader) ([]T, *jsonl.Report, error)) ([]T, error) {
	records, rr, err := read(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", src.path, err)
	}
	if !rr.Clean() {
		fmt.Fprintf(e.stderr, "ftmr-trace: warning: %s: %v\n", src.path, rr.Err())
	}
	return records, nil
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// snapshot parses an OpenMetrics source.
func snapshot(src *source) (metrics.Snapshot, error) {
	snap, err := metrics.ParseOpenMetrics(src)
	if err != nil {
		return snap, fmt.Errorf("%s: %w", src.path, err)
	}
	return snap, nil
}

// analyze reads one trace and walks its critical path.
func (e *env) analyze(src *source) (*critpath.Report, error) {
	events, err := readJSONL(e, src, trace.ReadJSONL)
	if err != nil {
		return nil, err
	}
	rep, err := critpath.Analyze(events)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", src.path, err)
	}
	if rep.Unreliable {
		fmt.Fprintf(e.stderr, "ftmr-trace: warning: %s: %d events overwritten by ring buffers; critical path is UNRELIABLE\n",
			src.path, rep.Dropped)
	}
	return rep, nil
}

func cmdCritPath(fs *flag.FlagSet) func(*env, []*source) int {
	top := fs.Int("top", 10, "longest segments to print (0 = none)")
	threshold := fs.Float64("threshold", 0.05, "share-of-makespan growth that counts as a regression (-against)")
	against := fs.String("against", "", "baseline trace: diff path composition of T.jsonl (B) against this run (A)")
	return func(e *env, in []*source) int {
		rep, err := e.analyze(in[0])
		if err != nil {
			return e.fail(err)
		}
		if *against == "" {
			rep.Render(e.stdout, *top)
			return 0
		}
		src, err := e.open(*against)
		if err != nil {
			return e.fail(err)
		}
		defer src.Close()
		base, err := e.analyze(src)
		if err != nil {
			return e.fail(err)
		}
		if critpath.RenderCompare(e.stdout, base, rep, *threshold) {
			return 1
		}
		return 0
	}
}

func cmdChrome(*flag.FlagSet) func(*env, []*source) int { return chrome }

func chrome(e *env, in []*source) int {
	events, err := readJSONL(e, in[0], trace.ReadJSONL)
	if err != nil {
		return e.fail(err)
	}
	if err := trace.WriteChrome(e.stdout, events); err != nil {
		return e.fail(err)
	}
	return 0
}

func cmdInspect(fs *flag.FlagSet) func(*env, []*source) int {
	waitgraph := fs.Bool("waitgraph", false, "emit the final snapshot's wait-for graph as Graphviz DOT")
	return func(e *env, in []*source) int {
		lines, err := readJSONL(e, in[0], introspect.ReadJSONL)
		if err != nil {
			return e.fail(err)
		}
		snaps, stalls := introspect.SplitLines(lines)
		if *waitgraph {
			introspect.RenderDOT(e.stdout, snaps, stalls)
		} else {
			introspect.RenderTable(e.stdout, snaps, stalls)
		}
		if len(stalls) > 0 {
			return 1
		}
		return 0
	}
}

func cmdHealth(fs *flag.FlagSet) func(*env, []*source) int {
	slo := metrics.DefaultSLO()
	slo.Flags(fs)
	return func(e *env, in []*source) int {
		snap, err := snapshot(in[0])
		if err != nil {
			return e.fail(err)
		}
		h := metrics.Evaluate(snap, slo)
		h.Render(e.stdout)
		if h.Breached() {
			return 1
		}
		return 0
	}
}

func cmdDiff(fs *flag.FlagSet) func(*env, []*source) int {
	tol := fs.Duration("tol", 0, "traces: virtual-time tolerance per aligned event (0 = exact)")
	max := fs.Int("max", 10, "max divergences or differences to print (0 = all)")
	return func(e *env, in []*source) int {
		a, b := in[0], in[1]
		switch {
		case a.kind != b.kind:
			return e.fail(fmt.Errorf("diff compares two files of one kind; %s is %s and %s is %s",
				a.path, kindName[a.kind], b.path, kindName[b.kind]))
		case a.kind == omFile && *tol != 0:
			return e.fail(fmt.Errorf("diff -tol aligns trace events; %s and %s are OpenMetrics snapshots", a.path, b.path))
		case a.kind == omFile:
			return e.diffSnapshots(a, b, *max)
		}
		return e.diffTraces(a, b, *tol, *max)
	}
}

// diffTraces is diff over two JSONL traces.
func (e *env) diffTraces(a, b *source, tol time.Duration, max int) int {
	evA, err := readJSONL(e, a, trace.ReadJSONL)
	if err != nil {
		return e.fail(err)
	}
	evB, err := readJSONL(e, b, trace.ReadJSONL)
	if err != nil {
		return e.fail(err)
	}

	rep := trace.Diff(evA, evB, trace.DiffOptions{VTTol: tol})
	e.printf("A: %s (%d events)\nB: %s (%d events)\n", a.path, rep.EventsA, b.path, rep.EventsB)
	e.printf("aligned %d event pairs across %d (rank, kind) streams\n", rep.Aligned, rep.Streams)

	if !rep.Diverged() {
		e.printf("identical: zero divergence\n")
		return 0
	}

	first := rep.First()
	e.printf("\nFIRST DIVERGENCE (by virtual time):\n  %s\n", first)
	counts := rep.CountByReason()
	e.printf("\n%d divergences total:", len(rep.Divergences))
	for _, r := range sortedKeys(counts) {
		e.printf(" %s=%d", r, counts[r])
	}
	e.printf("\n")
	if rep.ExtraA > 0 || rep.ExtraB > 0 {
		e.printf("tail events past the shorter stream: A+%d B+%d\n", rep.ExtraA, rep.ExtraB)
	}

	n := len(rep.Divergences)
	if max > 0 && n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		e.printf("  %s\n", &rep.Divergences[i])
	}
	if n < len(rep.Divergences) {
		e.printf("  ... %d more (raise -max to see them)\n", len(rep.Divergences)-n)
	}

	e.printf("\nper-phase virtual-time deltas (B - A):\n")
	e.printf("  %4s  %-8s  %14s  %14s  %14s\n", "rank", "phase", "A", "B", "delta")
	for _, pd := range rep.PhaseDeltas {
		marker := ""
		if pd.Delta() != 0 {
			marker = "  <--"
		}
		e.printf("  %4d  %-8s  %14v  %14v  %+14v%s\n", pd.Rank, pd.Phase, pd.A, pd.B, pd.Delta(), marker)
	}
	return 1
}

// diffSnapshots is diff over two OpenMetrics sources.
func (e *env) diffSnapshots(srcA, srcB *source, max int) int {
	a, err := snapshot(srcA)
	if err != nil {
		return e.fail(err)
	}
	b, err := snapshot(srcB)
	if err != nil {
		return e.fail(err)
	}
	diffs := metrics.Diff(a, b)
	if len(diffs) == 0 {
		e.printf("identical: %d families\n", len(a.Families))
		return 0
	}
	shown := diffs
	if max > 0 && len(shown) > max {
		shown = shown[:max]
	}
	for _, d := range shown {
		e.printf("%s\n", d)
	}
	if len(shown) < len(diffs) {
		e.printf("... %d more (raise -max to see them)\n", len(diffs)-len(shown))
	}
	e.printf("%d differences\n", len(diffs))
	return 1
}

func cmdSummarize(fs *flag.FlagSet) func(*env, []*source) int {
	skew := fs.Bool("skew", false, "a trace: also print the cross-rank skew/imbalance view")
	return func(e *env, in []*source) int {
		switch {
		case in[0].kind == omFile && *skew:
			return e.fail(fmt.Errorf("summarize -skew compares ranks' trace events; %s is an OpenMetrics snapshot", in[0].path))
		case in[0].kind == omFile:
			return e.summarizeSnapshot(in[0])
		}
		return e.summarizeTrace(in[0], *skew)
	}
}

// summarizeTrace is summarize over a JSONL trace.
func (e *env) summarizeTrace(src *source, showSkew bool) int {
	events, err := readJSONL(e, src, trace.ReadJSONL)
	if err != nil {
		return e.fail(err)
	}

	s := trace.Summarize(events)
	if d := s.Dropped(); d > 0 {
		fmt.Fprintf(e.stderr, "ftmr-trace: warning: %s: %d events overwritten by ring buffers; every aggregate below is a lower bound (UNRELIABLE)\n",
			src.path, d)
	}
	ranks := sortedKeys(s.Ranks)
	e.printf("%s: %d events, %d ranks (virtual time)\n", src.path, len(events), len(ranks))
	for _, r := range ranks {
		rs := s.Ranks[r]
		label := fmt.Sprintf("rank %d", r)
		if r == trace.GlobalRank {
			label = "world"
		}
		e.printf("\n%s:\n", label)
		for _, ph := range sortedKeys(rs.Phase) {
			e.printf("  phase %-8s %v\n", ph, rs.Phase[ph])
		}
		if rs.Sends+rs.Recvs > 0 {
			e.printf("  p2p: %d sends / %d B out, %d recvs / %d B in\n",
				rs.Sends, rs.SendBytes, rs.Recvs, rs.RecvBytes)
		}
		if rs.CollTime > 0 {
			e.printf("  collectives: %v\n", rs.CollTime)
		}
		if rs.CkptBytes+rs.CkptFrames > 0 {
			e.printf("  checkpoint: %d B in %d frames (copier %d B, %v)\n",
				rs.CkptBytes, rs.CkptFrames, rs.CopierBytes, rs.CopierTime)
		}
		if rs.RecoveredBytes+rs.RecoveredFrames > 0 {
			e.printf("  recovered: %d B in %d frames\n", rs.RecoveredBytes, rs.RecoveredFrames)
		}
		if rs.Recoveries > 0 {
			e.printf("  recoveries: %d taking %v\n", rs.Recoveries, rs.RecoveryTime)
		}
		if rs.TaskCommits > 0 {
			e.printf("  task commits: %d\n", rs.TaskCommits)
		}
		if rs.LBFits > 0 {
			e.printf("  lb model fits: %d\n", rs.LBFits)
		}
		if rs.DroppedEvents > 0 {
			e.printf("  !! %d events overwritten by this rank's ring buffer\n", rs.DroppedEvents)
		}
	}

	if showSkew {
		sk := s.Skew()
		e.printf("\nskew: mean busy %v, max busy %v (rank %d), imbalance %.3f\n",
			sk.MeanBusy, sk.MaxBusy, sk.SlowestRank, sk.Imbalance)
		e.printf("  %4s  %12s  %12s  %12s  %12s\n", "rank", "busy", "coll", "copier", "recovery")
		for _, r := range sk.Ranks {
			e.printf("  %4d  %12v  %12v  %12v  %12v\n", r.Rank, r.Busy, r.Coll, r.Copier, r.Recovery)
		}
	}
	return 0
}

// summarizeSnapshot is summarize over an OpenMetrics source: every family
// with its series and, where they add up, the world total.
func (e *env) summarizeSnapshot(src *source) int {
	snap, err := snapshot(src)
	if err != nil {
		return e.fail(err)
	}
	e.printf("snapshot at vt=%gs, %d families\n", snap.VTSeconds, len(snap.Families))
	for _, f := range snap.Families {
		e.printf("%s (%s) — %s\n", f.Name, f.Kind, f.Help)
		for _, s := range f.Series {
			label := "world"
			if s.LabelValue != "" {
				label = f.Label + "=" + s.LabelValue
			}
			if f.Kind == metrics.KindHistogram {
				e.printf("    %-12s count=%d sum=%g\n", label, s.Count, s.Sum)
			} else {
				e.printf("    %-12s %g\n", label, s.Value)
			}
		}
		if f.Kind != metrics.KindHistogram && len(f.Series) > 1 {
			e.printf("    %-12s %g\n", "total", snap.Total(f.Name))
		}
	}
	return 0
}

func cmdFlows(*flag.FlagSet) func(*env, []*source) int { return flows }

func flows(e *env, in []*source) int {
	events, err := readJSONL(e, in[0], trace.ReadJSONL)
	if err != nil {
		return e.fail(err)
	}

	fr := trace.CheckFlows(events)
	e.printf("%s: %d sends, %d recvs, %d matched flows\n", in[0].path, fr.Sends, fr.Recvs, fr.Matched)
	if fr.UnmatchedSends > 0 {
		e.printf("  %d unmatched sends (eager sends to dead ranks are legal under failure injection)\n",
			fr.UnmatchedSends)
	}
	if fr.ZeroRecvs > 0 {
		e.printf("  %d recvs without a flow id (aborted/failed receives)\n", fr.ZeroRecvs)
	}
	if fr.OK() {
		e.printf("flow invariants hold\n")
		return 0
	}
	e.printf("%d violations:\n", len(fr.Violations))
	for _, v := range fr.Violations {
		e.printf("  %s\n", v)
	}
	return 1
}
