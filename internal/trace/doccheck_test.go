package trace

import (
	"testing"

	"ftmrmpi/internal/doccheck"
)

// TestExportedSymbolsDocumented enforces the godoc contract for this package
// (`go vet` has no doc-comment analyzer, so `make check` gets the guarantee
// through this test): every exported type, function, method, and const/var
// group must carry a doc comment. The trace package is the repo's primary
// debugging surface — an undocumented exported symbol here means a consumer
// guessing whether a duration is virtual or wall time, which is exactly the
// confusion the godoc pass exists to prevent.
func TestExportedSymbolsDocumented(t *testing.T) { doccheck.Check(t, ".", "trace") }
