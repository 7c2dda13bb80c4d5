package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
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

// TestFigureShapes runs the cheap figures at tiny scale and asserts the
// paper's qualitative relationships hold. The figures run in parallel: each
// builds its own clusters and simulations and shares nothing.
func TestFigureShapes(t *testing.T) {
	s := quickScale()

	t.Run("fig4-direct-slower", func(t *testing.T) {
		t.Parallel()
		tab := fig04(s)
		if len(tab.Rows) != 2 {
			t.Fatalf("rows: %v", tab.Rows)
		}
		ratio, err := strconv.ParseFloat(tab.Rows[1][2], 64)
		if err != nil || ratio <= 1.0 {
			t.Fatalf("direct/local ratio = %v (%v), want > 1", tab.Rows[1][2], err)
		}
	})

	t.Run("fig16-two-pass-faster", func(t *testing.T) {
		t.Parallel()
		tab := fig16(s)
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
		t.Parallel()
		tab := fig05(s)
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

	t.Run("abl-restore-replica-beats-pfs", func(t *testing.T) {
		t.Parallel()
		tab := ablRestore(s)
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
		t.Parallel()
		tab := ablFTModel(s)
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

	t.Run("fig8-wc-beats-mrmpi", func(t *testing.T) {
		t.Parallel()
		tab := fig08(s)
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
