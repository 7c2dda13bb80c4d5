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

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
	"ftmrmpi/internal/failure"
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

// newCluster builds a fresh paper-shaped cluster sized for nprocs. The node
// count tracks the rank count in both directions: small figures get small
// clusters, and ceiling runs past the default 2048 slots (the 10k-rank
// throughput benchmark) grow the cluster to fit.
func newCluster(nprocs int) *cluster.Cluster {
	cfg := cluster.Default()
	need := (nprocs + cfg.PPN - 1) / cfg.PPN
	if need != cfg.Nodes {
		cfg.Nodes = need
	}
	return cluster.New(cfg)
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

// ftSpec applies the evaluation's default FT-MRMPI configuration: the two
// §5 refinements are disabled for fair comparison (§6.2) and re-enabled
// only by the figures that measure them.
func ftSpec(spec core.Spec, model core.Model) core.Spec {
	spec.Model = model
	spec.Convert = core.ConvertFourPass
	spec.Prefetch = false
	spec.CkptInterval = 100
	spec.LoadBalance = true
	return spec
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

// killPlan is the one failure a run may be given: rank dies delay after it
// first enters phase (failure.KillOnPhase). nil means a failure-free run.
type killPlan struct {
	rank  int
	phase core.Phase
	delay time.Duration
}

// wcRun executes one wordcount job and returns its result plus the cluster
// (whose PFS holds checkpoints/outputs for follow-up runs).
type wcRun struct {
	clus *cluster.Cluster
	h    *core.Handle
	res  *core.Result
}

// runWC generates a corpus on a fresh cluster and runs one job.
func runWC(name string, procs int, p workloads.WordcountParams, model core.Model,
	mutate func(*core.Spec), kill *killPlan) wcRun {
	clus := newCluster(procs)
	workloads.GenCorpus(clus, "in/"+name, p)
	spec := ftSpec(workloads.WordcountSpec(name, "in/"+name, procs, p), model)
	if mutate != nil {
		mutate(&spec)
	}
	h := core.RunSingle(clus, spec)
	applyKill(h, kill)
	clus.Sim.Run()
	return wcRun{clus: clus, h: h, res: h.Result()}
}

// rerunWC resubmits a (possibly restarted) job on an existing cluster.
func rerunWC(prev wcRun, spec core.Spec) wcRun {
	h := core.RunSingle(prev.clus, spec)
	prev.clus.Sim.Run()
	return wcRun{clus: prev.clus, h: h, res: h.Result()}
}

// applyKill wires a kill plan into a handle.
func applyKill(h *core.Handle, kill *killPlan) {
	if kill != nil {
		failure.KillOnPhase(h, kill.rank, kill.phase, kill.delay)
	}
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
