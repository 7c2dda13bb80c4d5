package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ftmrmpi/internal/core"
)

// quickScale keeps the in-package tests fast.
func quickScale() Scale { return Scale{Quick: true, MaxProcs: 64} }

func TestTableFprintAligns(t *testing.T) {
	tab := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "bbbb"},
		Notes:   []string{"n1"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "== x: demo ==") || !strings.Contains(out, "note: n1") {
		t.Fatalf("output missing sections:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestLookupKnownAndUnknown(t *testing.T) {
	if _, err := Lookup("fig5"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestAllFiguresRegistered(t *testing.T) {
	want := []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"abl-lb", "abl-queue", "abl-combiner", "abl-lb-trace", "abl-restore",
		"abl-ftmodel", "thr-des"}
	figs := Figures()
	if len(figs) != len(want) {
		t.Fatalf("%d figures registered, want %d", len(figs), len(want))
	}
	for i, id := range want {
		if figs[i].ID != id {
			t.Fatalf("figure %d = %s, want %s", i, figs[i].ID, id)
		}
	}
}

// TestFigureShapes computes every figure but the host-timed thr-des once, at
// quickScale and in parallel (each builds its own clusters and simulations
// and shares nothing), and holds the tables byte for byte to
// testdata/figures_quick.json: a change that moves any virtual number of any
// figure fails here, naming the figure. The subtests then assert the paper's
// qualitative relationships on those same tables. Regenerate the golden with
// FTMR_UPDATE_GOLDEN=1.
func TestFigureShapes(t *testing.T) {
	tabs := quickTables(t)

	t.Run("fig4-direct-slower", func(t *testing.T) {
		tab := tabs["fig4"]
		if len(tab.Rows) != 2 {
			t.Fatalf("rows: %v", tab.Rows)
		}
		ratio, err := strconv.ParseFloat(tab.Rows[1][2], 64)
		if err != nil || ratio <= 1.0 {
			t.Fatalf("direct/local ratio = %v (%v), want > 1", tab.Rows[1][2], err)
		}
	})

	t.Run("fig16-two-pass-faster", func(t *testing.T) {
		tab := tabs["fig16"]
		for _, row := range tab.Rows {
			two, err1 := strconv.ParseFloat(row[1], 64)
			four, err2 := strconv.ParseFloat(row[2], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("bad row %v", row)
			}
			if two >= four {
				t.Fatalf("2-pass (%v) not faster than 4-pass (%v) at %s procs", two, four, row[0])
			}
		}
	})

	t.Run("fig5-nwc-near-baseline", func(t *testing.T) {
		tab := tabs["fig5"]
		for _, row := range tab.Rows {
			nwc, err := strconv.ParseFloat(row[5], 64)
			if err != nil {
				t.Fatalf("bad row %v", row)
			}
			if nwc < 0.95 || nwc > 1.1 {
				t.Fatalf("NWC ratio %v at %s procs, want ~1.0", nwc, row[0])
			}
			cr, _ := strconv.ParseFloat(row[3], 64)
			if cr <= 1.0 {
				t.Fatalf("CR ratio %v at %s procs, want > 1 (checkpointing costs something)", cr, row[0])
			}
		}
	})

	// The straggler ablation's acceptance criterion: under the
	// throttled-turbo scenario the trace-driven balancer completes the job
	// strictly sooner than the static §3.4 fit (which keeps trusting the
	// turbo rank's fast history and hands it lost work it can no longer
	// absorb), and by a gap that is no noise.
	t.Run("abl-lb-trace-beats-static", func(t *testing.T) {
		tab := tabs["abl-lb-trace"]
		if len(tab.Rows) != 2 {
			t.Fatalf("rows: %v", tab.Rows)
		}
		st, err1 := strconv.ParseFloat(tab.Rows[0][1], 64)
		tr, err2 := strconv.ParseFloat(tab.Rows[1][1], 64)
		vs, err3 := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[1][3], "%"), 64)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("bad rows %v", tab.Rows)
		}
		if tr >= st {
			t.Fatalf("trace-driven balancing did not beat static: trace=%vs static=%vs", tr, st)
		}
		if gain := -vs; gain < 5 {
			t.Fatalf("trace-vs-static gain %.1f%% below the 5%% floor (trace=%vs static=%vs)", gain, tr, st)
		}
	})

	t.Run("abl-restore-replica-beats-pfs", func(t *testing.T) {
		tab := tabs["abl-restore"]
		if len(tab.Rows) != 2 {
			t.Fatalf("rows: %v", tab.Rows)
		}
		pfsWorst, err1 := strconv.ParseFloat(tab.Rows[0][2], 64)
		repWorst, err2 := strconv.ParseFloat(tab.Rows[1][2], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad rows %v", tab.Rows)
		}
		if repWorst >= pfsWorst {
			t.Fatalf("replica worst-rank recovery %vs not faster than PFS-only %vs", repWorst, pfsWorst)
		}
		repReads, _ := strconv.ParseFloat(tab.Rows[1][3], 64)
		if repReads == 0 {
			t.Fatal("replica run served no recovery reads from the replica tier")
		}
		for _, n := range tab.Notes {
			if strings.Contains(n, "FAIL") {
				t.Fatalf("slo gate breached: %v", tab.Notes)
			}
		}
	})

	t.Run("abl-ftmodel-crossover", func(t *testing.T) {
		tab := tabs["abl-ftmodel"]
		if len(tab.Rows) != 4 {
			t.Fatalf("rows: %v", tab.Rows)
		}
		ratioAt := func(i int) float64 {
			r, err := strconv.ParseFloat(tab.Rows[i][4], 64)
			if err != nil {
				t.Fatalf("bad row %v: %v", tab.Rows[i], err)
			}
			return r
		}
		// Failure-free, replication's capacity tax must show: cr wins.
		if ratioAt(0) <= 1.0 {
			t.Fatalf("replicate beat cr with zero failures (ratio %v); the capacity tax vanished", tab.Rows[0])
		}
		// At the top of the sweep the accumulated abort+resubmit+replay cost
		// must cross above the fixed tax: replicate wins.
		if ratioAt(3) >= 1.0 {
			t.Fatalf("cr beat replicate at 4 kills (ratio %v); no crossover", tab.Rows[3])
		}
		if tab.Rows[0][5] != "cr" || tab.Rows[3][5] != "replicate" {
			t.Fatalf("winner columns inconsistent: %v / %v", tab.Rows[0], tab.Rows[3])
		}
	})

	t.Run("abl-queue-cr-total-is-fig9s", func(t *testing.T) {
		// With no backlog, CR's time-to-solution is the failed run plus its
		// restart: fig9's CR total for the same scenario.
		var fig9CR string
		for _, row := range tabs["fig9"].Rows {
			if row[0] == core.ModelCheckpointRestart.String() {
				fig9CR = row[4]
			}
		}
		if q := tabs["abl-queue"].Rows[0]; q[0] != "0" || q[2] != fig9CR {
			t.Fatalf("abl-queue at bg=0 = %v, want cr-total %s (fig9's CR total)", q, fig9CR)
		}
	})

	t.Run("fig8-wc-beats-mrmpi", func(t *testing.T) {
		tab := tabs["fig8"]
		for _, row := range tab.Rows {
			wc, err := strconv.ParseFloat(row[4], 64)
			if err != nil {
				t.Fatalf("bad row %v", row)
			}
			if wc >= 1.0 {
				t.Fatalf("DR-WC ratio %v at %s procs, want < 1 (paper: up to 39%% faster)", wc, row[0])
			}
		}
	})
}

// quickTables runs every figure but thr-des at quickScale, in parallel,
// checks the tables against testdata/figures_quick.json, and returns them by
// figure ID.
func quickTables(t *testing.T) map[string]*Table {
	t.Helper()
	var figs []Figure
	for _, f := range Figures() {
		if f.ID != "thr-des" {
			figs = append(figs, f)
		}
	}
	tables := make([]*Table, len(figs))
	var wg sync.WaitGroup
	for i, f := range figs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tables[i] = f.Run(quickScale())
		}()
	}
	wg.Wait()

	var got bytes.Buffer
	if err := WriteJSON(&got, tables); err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/figures_quick.json"
	if os.Getenv("FTMR_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with FTMR_UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		var g, w jsonDoc
		if json.Unmarshal(got.Bytes(), &g) != nil || json.Unmarshal(want, &w) != nil || len(g.Figures) != len(w.Figures) {
			t.Fatalf("figures differ from %s in shape", golden)
		}
		for i := range g.Figures {
			gb, _ := json.Marshal(g.Figures[i])
			wb, _ := json.Marshal(w.Figures[i])
			if !bytes.Equal(gb, wb) {
				t.Errorf("%s differs from %s:\n got %s\nwant %s", g.Figures[i].ID, golden, gb, wb)
			}
		}
	}
	byID := make(map[string]*Table, len(tables))
	for _, tab := range tables {
		byID[tab.ID] = tab
	}
	return byID
}
