package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// TestWriteJSONSchema pins the machine-readable document contract: schema
// stamp, figure field names, arrays never null, and byte-determinism for
// identical inputs (BENCH_results.json must be diffable as a file).
func TestWriteJSONSchema(t *testing.T) {
	tab := &Table{
		ID:      "fig9",
		Title:   "demo",
		Columns: []string{"procs", "secs"},
		Notes:   []string{"n1"},
	}
	tab.AddRow("64", "1.5")
	empty := &Table{ID: "fig0", Title: "no rows"}

	var a, b bytes.Buffer
	if err := WriteJSON(&a, []*Table{tab, empty}); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, []*Table{tab, empty}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical inputs produced different bytes")
	}

	var doc struct {
		Schema  int `json:"schema"`
		Figures []struct {
			ID      string     `json:"id"`
			Title   string     `json:"title"`
			Columns []string   `json:"columns"`
			Rows    [][]string `json:"rows"`
			Notes   []string   `json:"notes"`
		} `json:"figures"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.Schema != JSONSchema {
		t.Fatalf("schema = %d, want %d", doc.Schema, JSONSchema)
	}
	if len(doc.Figures) != 2 || doc.Figures[0].ID != "fig9" || doc.Figures[1].ID != "fig0" {
		t.Fatalf("figures out of order or missing: %+v", doc.Figures)
	}
	if got := doc.Figures[0].Rows; len(got) != 1 || got[0][1] != "1.5" {
		t.Fatalf("rows = %v", got)
	}
	// Empty slices must marshal as [], not null.
	if bytes.Contains(a.Bytes(), []byte("null")) {
		t.Fatalf("document contains null arrays:\n%s", a.String())
	}
}

// docNumber is a decimal number in running text; only "−" (U+2212) and "+"
// sign it, so an ASCII hyphen between two numbers reads as a range.
const docNumber = `[−+]?\d+(?:\.\d+)?`

// docQuantity is a number, or a range of them ("0.0–0.5", "39.5-64.0",
// "−52.5 to −64.0"), followed by the unit all of them carry.
var (
	docQuantity = regexp.MustCompile(docNumber + `(?:\s*(?:–|…|-|to)\s*` + docNumber + `)*[\s*]*(ms|s|%|×)`)
	docNumberRe = regexp.MustCompile(docNumber)
)

// unitNumber is one number of a table cell that carries a unit, as the
// value in seconds, percent or times that the results cells hold.
type unitNumber struct {
	text     string
	value    float64
	decimals int
}

// unitNumbers returns every number in cell that carries a unit (s, ms, % or
// ×), directly or as part of a range. A number run into a word ("k2",
// "W=640", "fig3") or a unit that starts a word ("32 shadows") is none.
func unitNumbers(cell string) []unitNumber {
	var out []unitNumber
	for _, m := range docQuantity.FindAllStringSubmatchIndex(cell, -1) {
		prev, _ := utf8.DecodeLastRuneInString(cell[:m[0]])
		next, _ := utf8.DecodeRuneInString(cell[m[1]:])
		if m[0] > 0 && (unicode.IsLetter(prev) || unicode.IsDigit(prev) || strings.ContainsRune("._=", prev)) ||
			unicode.IsLetter(next) {
			continue
		}
		unit := cell[m[2]:m[3]]
		for _, num := range docNumberRe.FindAllString(cell[m[0]:m[2]], -1) {
			v, err := strconv.ParseFloat(strings.Replace(num, "−", "-", 1), 64)
			if err != nil {
				continue
			}
			dec := 0
			if dot := strings.IndexByte(num, '.'); dot >= 0 {
				dec = len(num) - dot - 1
			}
			if unit == "ms" {
				v, dec = v/1000, dec+3
			}
			out = append(out, unitNumber{text: num + unit, value: v, decimals: dec})
		}
	}
	return out
}

// TestUnitNumbers pins what the EXPERIMENTS.md check reads as a number
// with a unit, and what it leaves alone.
func TestUnitNumbers(t *testing.T) {
	for cell, want := range map[string]string{
		"chunk ≈ **1.12×** record (0.557 s vs 0.496 s)": "1.12× 0.557s 0.496s",
		"DR-WC ≈ **−95%**, NWC 10.4 %":                  "−95% 10.4%",
		"−39.5-−64.0 %, 0.0–0.5 %, 39.5-64.0 %":         "−39.5% −64.0% 0.0% 0.5% 39.5% 64.0%",
		"−40…−49%; 21.7 ms; 1.20× → 0.97×":              "−40% −49% 21.7ms 1.20× 0.97×",
		"−52.5% to −64.0%, +12.6 %, 1.155 s → 0.513 s":  "−52.5% −64.0% +12.6% 1.155s 0.513s",
		"W=640, replica-k2, 64 procs, 32 shadows, fig3": "",
	} {
		var got []string
		for _, n := range unitNumbers(cell) {
			got = append(got, n.text)
		}
		if strings.Join(got, " ") != want {
			t.Errorf("unitNumbers(%q) = %q, want %q", cell, strings.Join(got, " "), want)
		}
	}
}

// TestExperimentsNumbersMatchResults holds EXPERIMENTS.md's two figure
// tables to the committed BENCH_results.json: in each row's measured cell,
// every number with a unit must equal, at the precision written, a cell of
// that figure's rows, and every registered figure but the host-timed thr-des
// has a row. A regenerated figure that moves a number fails here until the
// prose says what the results now say.
func TestExperimentsNumbersMatchResults(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_results.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc jsonDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	cells := map[string][]float64{}
	for _, f := range doc.Figures {
		cells[f.ID] = []float64{}
		for _, row := range f.Rows {
			for _, c := range row {
				if v, err := strconv.ParseFloat(strings.TrimRight(c, "%×"), 64); err == nil {
					cells[f.ID] = append(cells[f.ID], v)
				}
			}
		}
	}
	md, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	figID := regexp.MustCompile("^(?:Fig (\\d+)\\b|`([a-z0-9-]+)`$)")
	rows, measured := map[string]int{}, -1
	for i, line := range strings.Split(string(md), "\n") {
		if !strings.HasPrefix(line, "|") {
			measured = -1
			continue
		}
		cols := strings.Split(strings.Trim(line, "|"), "|")
		for j := range cols {
			cols[j] = strings.TrimSpace(cols[j])
		}
		if measured < 0 {
			for j, c := range cols {
				if c == "Measured here" || c == "Result" {
					measured = j
				}
			}
			continue
		}
		m := figID.FindStringSubmatch(cols[0])
		if m == nil || measured >= len(cols) {
			continue // the separator row, or a row that is no figure (Table 1)
		}
		id := m[2]
		if m[1] != "" {
			id = "fig" + m[1]
		}
		have, ok := cells[id]
		if !ok {
			t.Errorf("EXPERIMENTS.md:%d: %s has no figure in BENCH_results.json", i+1, id)
			continue
		}
		rows[id]++
		for _, n := range unitNumbers(cols[measured]) {
			tol := 0.5*math.Pow(10, -float64(n.decimals)) + 1e-9
			found := false
			for _, v := range have {
				found = found || math.Abs(v-n.value) <= tol
			}
			if !found {
				t.Errorf("EXPERIMENTS.md:%d: %s: %s is in no cell of the committed results", i+1, id, n.text)
			}
		}
	}
	for _, f := range Figures() {
		if f.ID != "thr-des" && rows[f.ID] != 1 {
			t.Errorf("EXPERIMENTS.md has %d figure-table rows for %s, want 1", rows[f.ID], f.ID)
		}
	}
}
