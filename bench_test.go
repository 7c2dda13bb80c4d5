// Package-level benchmarks: one benchmark per paper figure. Each benchmark
// regenerates its figure through the same harness cmd/ftmr-bench uses and
// reports the figure's headline quantity as custom metrics (virtual
// seconds / ratios), so `go test -bench=.` doubles as a reproduction run.
//
// By default the benchmarks use the quick scale (sweeps capped at 256
// ranks) so the suite finishes in minutes; set FTMR_FULL=1 for the paper's
// full 32→2048 axes.
package ftmrmpi_test

import (
	"os"
	"strconv"
	"testing"

	"ftmrmpi/internal/bench"
)

// benchScale picks quick mode unless FTMR_FULL is set.
func benchScale() bench.Scale {
	if os.Getenv("FTMR_FULL") != "" {
		return bench.Scale{MaxProcs: 2048}
	}
	s := bench.ScaleFromEnv()
	s.Quick = true
	if s.MaxProcs > 256 {
		s.MaxProcs = 256
	}
	return s
}

// runFigure executes a figure once and reports its rows as metrics.
func runFigure(b *testing.B, id string) {
	fig, err := bench.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	s := benchScale()
	b.ResetTimer()
	var t *bench.Table
	for i := 0; i < b.N; i++ {
		t = fig.Run(s)
	}
	b.StopTimer()
	if t == nil || len(t.Rows) == 0 {
		b.Fatalf("%s produced no rows", id)
	}
	// Report the last row's numeric cells as metrics (the largest-scale
	// configuration of the sweep).
	last := t.Rows[len(t.Rows)-1]
	for i, cell := range last {
		if i >= len(t.Columns) {
			break
		}
		if v, err := strconv.ParseFloat(trimPct(cell), 64); err == nil {
			b.ReportMetric(v, sanitize(t.Columns[i]))
		}
	}
}

func trimPct(s string) string {
	if len(s) > 0 && s[len(s)-1] == '%' {
		return s[:len(s)-1]
	}
	return s
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out) + "/op"
}

func BenchmarkFig03Granularity(b *testing.B)        { runFigure(b, "fig3") }
func BenchmarkFig04CkptLocation(b *testing.B)       { runFigure(b, "fig4") }
func BenchmarkFig05Overhead(b *testing.B)           { runFigure(b, "fig5") }
func BenchmarkFig06CkptFrequency(b *testing.B)      { runFigure(b, "fig6") }
func BenchmarkFig07Copier(b *testing.B)             { runFigure(b, "fig7") }
func BenchmarkFig08FailedTotal(b *testing.B)        { runFigure(b, "fig8") }
func BenchmarkFig09FailRecover(b *testing.B)        { runFigure(b, "fig9") }
func BenchmarkFig10Decomposition(b *testing.B)      { runFigure(b, "fig10") }
func BenchmarkFig11PageRankContinuous(b *testing.B) { runFigure(b, "fig11") }
func BenchmarkFig12BFSContinuous(b *testing.B)      { runFigure(b, "fig12") }
func BenchmarkFig13BlastOverhead(b *testing.B)      { runFigure(b, "fig13") }
func BenchmarkFig14BlastRecovery(b *testing.B)      { runFigure(b, "fig14") }
func BenchmarkFig15Prefetch(b *testing.B)           { runFigure(b, "fig15") }
func BenchmarkFig16Convert(b *testing.B)            { runFigure(b, "fig16") }
func BenchmarkAblLoadBalance(b *testing.B)          { runFigure(b, "abl-lb") }
func BenchmarkAblQueue(b *testing.B)                { runFigure(b, "abl-queue") }
func BenchmarkAblCombiner(b *testing.B)             { runFigure(b, "abl-combiner") }
