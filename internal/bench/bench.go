// Package bench regenerates every table and figure of the paper's
// evaluation (§6). Each figure is a function returning a Table whose rows
// are the series the paper plots; cmd/ftmr-bench prints them.
//
// Absolute numbers are simulated virtual seconds on scaled-down inputs —
// they are not expected to match the paper's testbed. What must match is
// the *shape*: who wins, by roughly what factor, and where the crossovers
// fall. EXPERIMENTS.md records paper-vs-measured for every figure.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"ftmrmpi/internal/core"
	"ftmrmpi/internal/scenario"
	"ftmrmpi/internal/workloads"
)

// Table is one reproduced figure/table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Columns)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Scale controls benchmark sizing. Quick mode trims the sweeps for fast
// iteration; the default follows the paper's axes on scaled-down inputs.
type Scale struct {
	Quick    bool
	MaxProcs int
}

// procSweep returns the paper's strong-scaling axis clipped to the scale.
func (s Scale) procSweep(from int) []int {
	var out []int
	for p := from; p <= s.MaxProcs; p *= 2 {
		out = append(out, p)
	}
	return out
}

// wcParams returns the wordcount sizing for the benchmarks (the 128 GB
// stand-in).
func (s Scale) wcParams() workloads.WordcountParams {
	p := workloads.DefaultWordcount()
	p.Chunks = 2048
	p.Lines = 128
	if s.Quick {
		p.Chunks = 512
		p.Lines = 64
	}
	return p
}

// evalSpec is the evaluation's default FT-MRMPI configuration under model:
// the two §5 refinements are disabled for fair comparison (§6.2) and
// re-enabled only by the figures that measure them.
func evalSpec(model core.Model) core.Spec {
	return core.Spec{Model: model, Convert: core.ConvertFourPass, CkptInterval: 100, LoadBalance: true}
}

// secs formats a virtual duration in seconds.
func secs(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }

// ratio formats a/b.
func ratio(a, b time.Duration) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(a)/float64(b))
}

// pct formats 100*(a-b)/b.
func pct(a, b time.Duration) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*(float64(a)-float64(b))/float64(b))
}

// wcScenario is a wordcount job on procs ranks under spec, the shape most
// figure cells take.
func wcScenario(name string, procs int, p workloads.WordcountParams, spec core.Spec) scenario.Scenario {
	return scenario.Scenario{Name: name, Procs: procs, Workload: scenario.Wordcount(p), Spec: spec}
}

// runWordcount runs one failure-free wordcount job and returns its result.
func runWordcount(name string, procs int, p workloads.WordcountParams, spec core.Spec) *core.Result {
	return scenario.Run(wcScenario(name, procs, p, spec)).Result()
}

// splitmixPick is the victim draw fig11 and fig12 hand failure.Continuous: a
// tiny deterministic splitmix64 generator reduced modulo n. Their victims in
// BENCH_results.json are this generator's.
func splitmixPick(seed int64) func(n int) int {
	x := uint64(seed) * 2685821657736338717
	return func(n int) int {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return int((z ^ (z >> 31)) % uint64(n))
	}
}
