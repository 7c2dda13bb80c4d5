package core

import (
	"testing"

	"ftmrmpi/internal/doccheck"
)

// TestExportedSymbolsDocumented enforces the godoc contract for this package
// (`go vet` has no doc-comment analyzer, so `make check` gets the guarantee
// through this test): every exported type, function, method, and const/var
// group must carry a doc comment. The core package is the public MapReduce
// API surface (Spec, Handle, the phase/recovery model) — an undocumented
// symbol here is a job author guessing at fault-tolerance semantics.
func TestExportedSymbolsDocumented(t *testing.T) { doccheck.Check(t, ".", "core") }
