package introspect

import (
	"testing"

	"ftmrmpi/internal/doccheck"
)

// TestExportedSymbolsDocumented enforces the godoc contract for this package
// (`go vet` has no doc-comment analyzer, so `make check` gets the guarantee
// through this test): every exported type, function, method, and const/var
// group must carry a doc comment. The introspect package is a wire format
// plus a concurrency contract (safe-point captures, the watchdog's beacon
// protocol) — an undocumented symbol here is a consumer guessing at the
// snapshot schema or at what may be called from which goroutine.
func TestExportedSymbolsDocumented(t *testing.T) { doccheck.Check(t, ".", "introspect") }
