package critpath

import (
	"testing"

	"ftmrmpi/internal/doccheck"
)

// TestExportedSymbolsDocumented enforces the godoc contract for this package
// (same gate as internal/trace and internal/metrics): every exported type,
// function, method, struct field, and const/var must carry a doc comment.
// The critical-path report is a decision-making surface — an undocumented
// category or field here means a consumer guessing what a share means.
func TestExportedSymbolsDocumented(t *testing.T) { doccheck.Check(t, ".", "critpath") }
