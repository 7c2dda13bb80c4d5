package metrics

import (
	"testing"

	"ftmrmpi/internal/doccheck"
)

// TestExportedSymbolsDocumented enforces the godoc contract for this package
// (`go vet` has no doc-comment analyzer, so `make check` gets the guarantee
// through this test): every exported type, function, method, and const/var
// group must carry a doc comment. The metrics plane is consumed by the
// instrumentation sites, both CLIs, and the health gate — an undocumented
// exported symbol here means a caller guessing whether a family is per-rank
// or world-scoped, which is exactly the confusion the godoc pass prevents.
func TestExportedSymbolsDocumented(t *testing.T) { doccheck.Check(t, ".", "metrics") }
