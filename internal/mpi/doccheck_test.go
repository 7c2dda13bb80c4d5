package mpi

import (
	"testing"

	"ftmrmpi/internal/doccheck"
)

// TestExportedSymbolsDocumented enforces the godoc contract for this package
// (`go vet` has no doc-comment analyzer, so `make check` gets the guarantee
// through this test): every exported type, function, method, and const/var
// group must carry a doc comment. The mpi package is the API every workload
// and the whole core runtime program against — matching semantics, ULFM
// error returns, and collective fault behavior all live behind these
// symbols, and an undocumented one means a caller guessing which errors a
// failed peer produces.
func TestExportedSymbolsDocumented(t *testing.T) { doccheck.Check(t, ".", "mpi") }
