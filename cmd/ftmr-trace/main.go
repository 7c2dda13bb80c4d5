// Command ftmr-trace analyzes JSONL traces written by ftmr-sim -trace
// (wire format: DESIGN.md §"Trace wire format v2"). Five subcommands:
//
//	ftmr-trace diff [-tol d] [-max n] A.jsonl B.jsonl
//	    Align two traces of the same workload by (rank, kind, occurrence)
//	    and report the first virtual-time divergence plus a per-phase
//	    delta table. Same-seed runs must report zero divergence.
//
//	ftmr-trace summarize [-skew] T.jsonl
//	    Per-rank aggregates (phase times, p2p volume, checkpoint bytes),
//	    optionally with the cross-rank skew/imbalance view.
//
//	ftmr-trace flows T.jsonl
//	    Validate send→recv message pairing via flow ids.
//
//	ftmr-trace critpath [-top n] [-threshold f] [-against B.jsonl] T.jsonl
//	    Reconstruct the causal DAG and attribute the virtual-time critical
//	    path (DESIGN.md §"Critical path"); with -against, diff two runs'
//	    path composition and flag regressed categories.
//
//	ftmr-trace inspect [-waitgraph] I.jsonl
//	    Render an introspection stream from ftmr-sim -introspect-out: the
//	    final per-rank wait-state table plus every stall report, or the
//	    wait-for graph in Graphviz DOT form.
//
// Exit status: 0 clean, 1 divergence/violations/regression/stalls found, 2
// usage or unreadable input. A damaged file (malformed lines next to a header
// or to lines that do decode, e.g. a trace cut short by a crash) is reported
// on stderr and analysis proceeds on the lines that decoded; a file with no
// header in which nothing decodes is not a trace at all: exit 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/jsonl"
	"ftmrmpi/internal/trace"
	"ftmrmpi/internal/trace/critpath"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: ftmr-trace <command> [flags] <trace.jsonl>...

commands:
  diff [-tol duration] [-max n] A.jsonl B.jsonl
        align two traces, report first divergence + per-phase vt deltas
  summarize [-skew] T.jsonl
        per-rank aggregates derived from the event stream
  flows T.jsonl
        validate send->recv message pairing via flow ids
  critpath [-top n] [-threshold f] [-against B.jsonl] T.jsonl
        attribute the virtual-time critical path; with -against, diff two
        runs' path composition and flag regressed categories
  inspect [-waitgraph] I.jsonl
        render an introspection stream (ftmr-sim -introspect-out): final
        wait-state table + stall reports, or the wait-for graph as DOT

exit status: 0 clean, 1 divergence/violations/regression/stalls, 2 usage or unreadable input
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "diff":
		os.Exit(cmdDiff(os.Args[2:]))
	case "summarize":
		os.Exit(cmdSummarize(os.Args[2:]))
	case "flows":
		os.Exit(cmdFlows(os.Args[2:]))
	case "critpath":
		os.Exit(cmdCritPath(os.Args[2:]))
	case "inspect":
		os.Exit(cmdInspect(os.Args[2:]))
	default:
		fmt.Fprintf(os.Stderr, "ftmr-trace: unknown command %q\n", os.Args[1])
		usage()
	}
}

// analyze loads one trace and walks its critical path, mapping both load
// and analysis failures to diagnostics on stderr.
func analyze(path string) (*critpath.Report, error) {
	events, err := load(path, trace.ReadJSONLFile)
	if err != nil {
		return nil, err
	}
	rep, err := critpath.Analyze(events)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Unreliable {
		fmt.Fprintf(os.Stderr, "ftmr-trace: warning: %s: %d events overwritten by ring buffers; critical path is UNRELIABLE\n",
			path, rep.Dropped)
	}
	return rep, nil
}

func cmdCritPath(args []string) int {
	fs := flag.NewFlagSet("critpath", flag.ExitOnError)
	top := fs.Int("top", 10, "longest segments to print (0 = none)")
	threshold := fs.Float64("threshold", 0.05, "share-of-makespan growth that counts as a regression (-against)")
	against := fs.String("against", "", "baseline trace: diff path composition of T.jsonl (B) against this run (A)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	rep, err := analyze(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftmr-trace:", err)
		return 2
	}
	if *against == "" {
		rep.Render(os.Stdout, *top)
		return 0
	}
	base, err := analyze(*against)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftmr-trace:", err)
		return 2
	}
	if critpath.RenderCompare(os.Stdout, base, rep, *threshold) {
		return 1
	}
	return 0
}

func cmdInspect(args []string) int {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	waitgraph := fs.Bool("waitgraph", false, "emit the final snapshot's wait-for graph as Graphviz DOT")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	lines, err := load(fs.Arg(0), introspect.ReadJSONLFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftmr-trace:", err)
		return 2
	}
	snaps, stalls := introspect.SplitLines(lines)
	if *waitgraph {
		introspect.RenderDOT(os.Stdout, snaps, stalls)
	} else {
		introspect.RenderTable(os.Stdout, snaps, stalls)
	}
	if len(stalls) > 0 {
		return 1
	}
	return 0
}

// load reads one JSONL file with its format's reader, reporting (not failing
// on) counted line damage.
func load[T any](path string, read func(string) ([]T, *jsonl.Report, error)) ([]T, error) {
	records, rr, err := read(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !rr.Clean() {
		fmt.Fprintf(os.Stderr, "ftmr-trace: warning: %s: %v\n", path, rr.Err())
	}
	return records, nil
}

func cmdDiff(args []string) int {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	tol := fs.Duration("tol", 0, "virtual-time tolerance per aligned event (0 = exact)")
	max := fs.Int("max", 10, "max divergences to print (0 = all)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	pathA, pathB := fs.Arg(0), fs.Arg(1)
	a, err := load(pathA, trace.ReadJSONLFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftmr-trace:", err)
		return 2
	}
	b, err := load(pathB, trace.ReadJSONLFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftmr-trace:", err)
		return 2
	}

	rep := trace.Diff(a, b, trace.DiffOptions{VTTol: *tol})
	fmt.Printf("A: %s (%d events)\nB: %s (%d events)\n", pathA, rep.EventsA, pathB, rep.EventsB)
	fmt.Printf("aligned %d event pairs across %d (rank, kind) streams\n", rep.Aligned, rep.Streams)

	if !rep.Diverged() {
		fmt.Println("identical: zero divergence")
		return 0
	}

	first := rep.First()
	fmt.Printf("\nFIRST DIVERGENCE (by virtual time):\n  %s\n", first)
	counts := rep.CountByReason()
	reasons := make([]string, 0, len(counts))
	for r := range counts {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	fmt.Printf("\n%d divergences total:", len(rep.Divergences))
	for _, r := range reasons {
		fmt.Printf(" %s=%d", r, counts[r])
	}
	fmt.Println()
	if rep.ExtraA > 0 || rep.ExtraB > 0 {
		fmt.Printf("tail events past the shorter stream: A+%d B+%d\n", rep.ExtraA, rep.ExtraB)
	}

	n := len(rep.Divergences)
	if *max > 0 && n > *max {
		n = *max
	}
	for i := 0; i < n; i++ {
		fmt.Printf("  %s\n", &rep.Divergences[i])
	}
	if n < len(rep.Divergences) {
		fmt.Printf("  ... %d more (raise -max to see them)\n", len(rep.Divergences)-n)
	}

	fmt.Println("\nper-phase virtual-time deltas (B - A):")
	fmt.Printf("  %4s  %-8s  %14s  %14s  %14s\n", "rank", "phase", "A", "B", "delta")
	for _, pd := range rep.PhaseDeltas {
		marker := ""
		if pd.Delta() != 0 {
			marker = "  <--"
		}
		fmt.Printf("  %4d  %-8s  %14v  %14v  %+14v%s\n", pd.Rank, pd.Phase, pd.A, pd.B, pd.Delta(), marker)
	}
	return 1
}

func cmdSummarize(args []string) int {
	fs := flag.NewFlagSet("summarize", flag.ExitOnError)
	showSkew := fs.Bool("skew", false, "also print the cross-rank skew/imbalance view")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	events, err := load(fs.Arg(0), trace.ReadJSONLFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftmr-trace:", err)
		return 2
	}

	s := trace.Summarize(events)
	if d := s.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "ftmr-trace: warning: %s: %d events overwritten by ring buffers; every aggregate below is a lower bound (UNRELIABLE)\n",
			fs.Arg(0), d)
	}
	ranks := make([]int, 0, len(s.Ranks))
	for r := range s.Ranks {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	fmt.Printf("%s: %d events, %d ranks (virtual time)\n", fs.Arg(0), len(events), len(ranks))
	for _, r := range ranks {
		rs := s.Ranks[r]
		label := fmt.Sprintf("rank %d", r)
		if r == trace.GlobalRank {
			label = "world"
		}
		fmt.Printf("\n%s:\n", label)
		phases := make([]string, 0, len(rs.Phase))
		for ph := range rs.Phase {
			phases = append(phases, ph)
		}
		sort.Strings(phases)
		for _, ph := range phases {
			fmt.Printf("  phase %-8s %v\n", ph, rs.Phase[ph])
		}
		if rs.Sends+rs.Recvs > 0 {
			fmt.Printf("  p2p: %d sends / %d B out, %d recvs / %d B in\n",
				rs.Sends, rs.SendBytes, rs.Recvs, rs.RecvBytes)
		}
		if rs.CollTime > 0 {
			fmt.Printf("  collectives: %v\n", rs.CollTime)
		}
		if rs.CkptBytes+rs.CkptFrames > 0 {
			fmt.Printf("  checkpoint: %d B in %d frames (copier %d B, %v)\n",
				rs.CkptBytes, rs.CkptFrames, rs.CopierBytes, rs.CopierTime)
		}
		if rs.RecoveredBytes+rs.RecoveredFrames > 0 {
			fmt.Printf("  recovered: %d B in %d frames\n", rs.RecoveredBytes, rs.RecoveredFrames)
		}
		if rs.Recoveries > 0 {
			fmt.Printf("  recoveries: %d taking %v\n", rs.Recoveries, rs.RecoveryTime)
		}
		if rs.TaskCommits > 0 {
			fmt.Printf("  task commits: %d\n", rs.TaskCommits)
		}
		if rs.LBFits > 0 {
			fmt.Printf("  lb model fits: %d\n", rs.LBFits)
		}
		if rs.DroppedEvents > 0 {
			fmt.Printf("  !! %d events overwritten by this rank's ring buffer\n", rs.DroppedEvents)
		}
	}

	if *showSkew {
		sk := s.Skew()
		fmt.Printf("\nskew: mean busy %v, max busy %v (rank %d), imbalance %.3f\n",
			sk.MeanBusy, sk.MaxBusy, sk.SlowestRank, sk.Imbalance)
		fmt.Printf("  %4s  %12s  %12s  %12s  %12s\n", "rank", "busy", "coll", "copier", "recovery")
		for _, r := range sk.Ranks {
			fmt.Printf("  %4d  %12v  %12v  %12v  %12v\n", r.Rank, r.Busy, r.Coll, r.Copier, r.Recovery)
		}
	}
	return 0
}

func cmdFlows(args []string) int {
	fs := flag.NewFlagSet("flows", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	events, err := load(fs.Arg(0), trace.ReadJSONLFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftmr-trace:", err)
		return 2
	}

	fr := trace.CheckFlows(events)
	fmt.Printf("%s: %d sends, %d recvs, %d matched flows\n", fs.Arg(0), fr.Sends, fr.Recvs, fr.Matched)
	if fr.MirroredSends > 0 {
		fmt.Printf("  %d mirrored sends (shadow-fed duplicates under -ft-model=replicate are expected)\n",
			fr.MirroredSends)
	}
	if fr.UnmatchedSends > 0 {
		fmt.Printf("  %d unmatched sends (eager sends to dead ranks are legal under failure injection)\n",
			fr.UnmatchedSends)
	}
	if fr.ZeroRecvs > 0 {
		fmt.Printf("  %d recvs without a flow id (aborted/failed receives)\n", fr.ZeroRecvs)
	}
	if fr.OK() {
		fmt.Println("flow invariants hold")
		return 0
	}
	fmt.Printf("%d violations:\n", len(fr.Violations))
	for _, v := range fr.Violations {
		fmt.Printf("  %s\n", v)
	}
	return 1
}
