package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ftmrmpi/internal/bench"
)

// TestModes drives every mode but -all (46 s at the quick scale; `make
// census` runs it) through the real flag parser: -list prints one line per
// figure, an unknown figure, a missing mode and an unknown flag are exit 2
// with nothing on stdout, and the cheapest figure prints its table and
// writes the JSON document -json names.
func TestModes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("-list: exit %d, stderr %q", code, stderr.String())
	}
	if got, want := strings.Count(stdout.String(), "\n"), len(bench.Figures()); got != want || !strings.HasPrefix(stdout.String(), "fig3 ") {
		t.Fatalf("-list printed %d lines for %d figures:\n%s", got, want, stdout.String())
	}

	for _, c := range []struct{ args, want string }{
		{"-fig nope", "nope"},
		{"", "Usage of ftmr-bench"},
		{"-bogus", "flag provided but not defined"},
	} {
		stdout.Reset()
		stderr.Reset()
		if code := run(strings.Fields(c.args), &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), c.want) || stdout.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2 and stderr mentioning %q", c.args, code, stdout.String(), stderr.String(), c.want)
		}
	}

	out := filepath.Join(t.TempDir(), "fig4.json")
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-quick", "-fig", "fig4", "-json", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("-fig fig4: exit %d, stderr %q", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "== fig4: ") || !strings.Contains(stdout.String(), "gpfs-direct") {
		t.Errorf("-fig fig4 printed:\n%s", stdout.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Figures []struct{ ID string }
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Figures) != 1 || doc.Figures[0].ID != "fig4" {
		t.Errorf("-json wrote %s (decode: %v), want one figure, fig4", raw, err)
	}

	stderr.Reset()
	if code := run([]string{"-list", "-json", filepath.Join(out, "under-a-file")}, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "write json") {
		t.Errorf("-json to an impossible path: exit %d, stderr %q; want exit 1", code, stderr.String())
	}
}
