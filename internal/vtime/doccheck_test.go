package vtime

import (
	"testing"

	"ftmrmpi/internal/doccheck"
)

// TestExportedSymbolsDocumented enforces the godoc contract for this package
// (`go vet` has no doc-comment analyzer, so `make check` gets the guarantee
// through this test): every exported type, function, method, and const/var
// group must carry a doc comment. The vtime package is the simulator core —
// its contract (total event order, one-proc-at-a-time execution, park/wake
// semantics) is what every determinism guarantee in the repo rests on, so an
// undocumented symbol here is a caller guessing at scheduling behavior.
func TestExportedSymbolsDocumented(t *testing.T) { doccheck.Check(t, ".", "vtime") }
