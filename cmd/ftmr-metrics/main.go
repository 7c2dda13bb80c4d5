// Command ftmr-metrics renders, diffs, and health-gates OpenMetrics
// snapshot files written by ftmr-sim -metrics-out. Three subcommands:
//
//	ftmr-metrics render S.om
//	    Parse and pretty-print one snapshot: every family with its
//	    per-rank series and world total.
//
//	ftmr-metrics diff A.om B.om
//	    Compare two snapshots family-by-family and series-by-series.
//	    Same-seed runs must diff clean.
//
//	ftmr-metrics health [-slo-* bound] S.om
//	    Evaluate the SLO health gate on a snapshot, print the report, and
//	    exit 1 when the gate fails.
//
// Exit status: 0 clean, 1 difference found or gate failed, 2 usage or I/O
// error.
package main

import (
	"flag"
	"fmt"
	"os"

	"ftmrmpi/internal/metrics"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: ftmr-metrics <command> [flags] <snapshot.om>...

commands:
  render S.om
        pretty-print one snapshot: families, series, world totals
  diff A.om B.om
        compare two snapshots; same-seed runs must diff clean
  health [-slo-<bound> f]... S.om
        evaluate the SLO gate under ftmr-sim -health's nine bounds
        (health -h lists them; negative bound = report-only)

exit status: 0 clean, 1 difference or gate failure, 2 usage or I/O error
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "render":
		os.Exit(cmdRender(os.Args[2:]))
	case "diff":
		os.Exit(cmdDiff(os.Args[2:]))
	case "health":
		os.Exit(cmdHealth(os.Args[2:]))
	default:
		fmt.Fprintf(os.Stderr, "ftmr-metrics: unknown command %q\n", os.Args[1])
		usage()
	}
}

// load parses one OpenMetrics snapshot file.
func load(path string) (metrics.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return metrics.Snapshot{}, err
	}
	defer f.Close()
	snap, err := metrics.ParseOpenMetrics(f)
	if err != nil {
		return metrics.Snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

func cmdRender(args []string) int {
	fs := flag.NewFlagSet("render", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	snap, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftmr-metrics: %v\n", err)
		return 2
	}
	fmt.Printf("snapshot at vt=%gs, %d families\n", snap.VTSeconds, len(snap.Families))
	for _, f := range snap.Families {
		fmt.Printf("%s (%s) — %s\n", f.Name, f.Kind, f.Help)
		for _, s := range f.Series {
			label := "world"
			if s.LabelValue != "" {
				label = f.Label + "=" + s.LabelValue
			}
			if f.Kind == metrics.KindHistogram {
				fmt.Printf("    %-12s count=%d sum=%g\n", label, s.Count, s.Sum)
			} else {
				fmt.Printf("    %-12s %g\n", label, s.Value)
			}
		}
		if f.Kind != metrics.KindHistogram && len(f.Series) > 1 {
			fmt.Printf("    %-12s %g\n", "total", snap.Total(f.Name))
		}
	}
	return 0
}

func cmdDiff(args []string) int {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	max := fs.Int("max", 20, "max differences to print (0 = all)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	a, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftmr-metrics: %v\n", err)
		return 2
	}
	b, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftmr-metrics: %v\n", err)
		return 2
	}
	diffs := diffSnapshots(a, b)
	if len(diffs) == 0 {
		fmt.Printf("identical: %d families\n", len(a.Families))
		return 0
	}
	shown := diffs
	if *max > 0 && len(shown) > *max {
		shown = shown[:*max]
	}
	for _, d := range shown {
		fmt.Println(d)
	}
	if len(shown) < len(diffs) {
		fmt.Printf("... and %d more\n", len(diffs)-len(shown))
	}
	fmt.Printf("%d differences\n", len(diffs))
	return 1
}

// diffSnapshots lists human-readable differences between two snapshots.
func diffSnapshots(a, b metrics.Snapshot) []string {
	var out []string
	if a.VTSeconds != b.VTSeconds {
		out = append(out, fmt.Sprintf("virtual time: %g vs %g", a.VTSeconds, b.VTSeconds))
	}
	seen := map[string]bool{}
	for i := range a.Families {
		fa := &a.Families[i]
		seen[fa.Name] = true
		fb := b.Family(fa.Name)
		if fb == nil {
			out = append(out, fmt.Sprintf("%s: only in %s", fa.Name, "A"))
			continue
		}
		out = append(out, diffFamily(fa, fb)...)
	}
	for i := range b.Families {
		if !seen[b.Families[i].Name] {
			out = append(out, fmt.Sprintf("%s: only in %s", b.Families[i].Name, "B"))
		}
	}
	return out
}

func diffFamily(a, b *metrics.FamilySnapshot) []string {
	var out []string
	if a.Kind != b.Kind || a.Label != b.Label {
		return []string{fmt.Sprintf("%s: kind/label mismatch (%s/%s vs %s/%s)",
			a.Name, a.Kind, a.Label, b.Kind, b.Label)}
	}
	seen := map[string]bool{}
	for i := range a.Series {
		sa := &a.Series[i]
		seen[sa.LabelValue] = true
		sb := findSeries(b, sa.LabelValue)
		name := seriesName(a, sa.LabelValue)
		if sb == nil {
			out = append(out, fmt.Sprintf("%s: only in A", name))
			continue
		}
		switch {
		case a.Kind == metrics.KindHistogram:
			if sa.Count != sb.Count || sa.Sum != sb.Sum || !eqCounts(sa.Counts, sb.Counts) {
				out = append(out, fmt.Sprintf("%s: count/sum %d/%g vs %d/%g",
					name, sa.Count, sa.Sum, sb.Count, sb.Sum))
			}
		case sa.Value != sb.Value:
			out = append(out, fmt.Sprintf("%s: %g vs %g", name, sa.Value, sb.Value))
		}
	}
	for i := range b.Series {
		if !seen[b.Series[i].LabelValue] {
			out = append(out, fmt.Sprintf("%s: only in B", seriesName(b, b.Series[i].LabelValue)))
		}
	}
	return out
}

func findSeries(f *metrics.FamilySnapshot, labelValue string) *metrics.SeriesSnapshot {
	for i := range f.Series {
		if f.Series[i].LabelValue == labelValue {
			return &f.Series[i]
		}
	}
	return nil
}

func seriesName(f *metrics.FamilySnapshot, labelValue string) string {
	if labelValue == "" {
		return f.Name
	}
	return fmt.Sprintf("%s{%s=%q}", f.Name, f.Label, labelValue)
}

func eqCounts(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func cmdHealth(args []string) int {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	slo := metrics.DefaultSLO()
	slo.Flags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	snap, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftmr-metrics: %v\n", err)
		return 2
	}
	h := metrics.Evaluate(snap, slo)
	h.Render(os.Stdout)
	if h.Breached() {
		return 1
	}
	return 0
}
