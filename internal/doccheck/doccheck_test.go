package doccheck

import (
	"strings"
	"testing"
)

// TestMissingReportsUndocumentedSymbols runs the checker over a fixture
// package: exactly the undocumented exported symbols are reported — losing a
// comment on an exported symbol fails the owning package's test.
func TestMissingReportsUndocumentedSymbols(t *testing.T) {
	got, err := Missing("testdata/undoc", "undoc")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"field Documented.Silent",
		"type Bare",
		"func Quiet",
		"func Loose",
		"const C",
		"var V",
	}
	if len(got) != len(want) {
		t.Fatalf("reported %d symbols, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	all := strings.Join(got, "\n")
	for _, w := range want {
		if !strings.Contains(all, "exported "+w+" has no doc comment") {
			t.Errorf("no finding names %q in:\n%s", w, all)
		}
	}
}

// TestMissingUnknownPackage pins the error for a wrong package name, so a
// renamed package cannot silently pass its doc check.
func TestMissingUnknownPackage(t *testing.T) {
	if _, err := Missing("testdata/undoc", "nosuch"); err == nil {
		t.Fatal("no error for a package that is not in the directory")
	}
}

// TestExportedSymbolsDocumented enforces the godoc contract (`go vet` has no
// doc-comment analyzer, so `make check` gets the guarantee through this test)
// on the packages whose exported surface other code programs against or
// reads reports from: the public MapReduce API, the MPI layer and its ULFM
// errors, the simulator core every determinism guarantee rests on, the three
// observation planes and their wire formats, the critical-path report — and
// this package itself. An undocumented symbol there is a caller guessing
// whether a duration is virtual or wall time, which errors a failed peer
// produces, or what a share means.
func TestExportedSymbolsDocumented(t *testing.T) {
	for _, c := range []struct{ dir, pkg string }{
		{"../core", "core"},
		{"../introspect", "introspect"},
		{"../metrics", "metrics"},
		{"../mpi", "mpi"},
		{"../trace", "trace"},
		{"../trace/critpath", "critpath"},
		{"../vtime", "vtime"},
		{".", "doccheck"},
	} {
		t.Run(c.pkg, func(t *testing.T) { Check(t, c.dir, c.pkg) })
	}
}
