package doccheck

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneThreadAboveTheScheduler holds every layer above internal/vtime to
// one thread. The scheduler runs one simulated process at a time, and that is
// what makes a seed's output byte-identical under any failure schedule; a
// goroutine, a select or a lock above it would be a second mechanism for what
// the scheduler already orders. It fails, naming file:line, on a go
// statement, a select statement or an import of sync or sync/atomic in any
// non-test file under internal/ or cmd/ outside internal/vtime.
func TestOneThreadAboveTheScheduler(t *testing.T) {
	vtime := filepath.Join("..", "vtime") + string(filepath.Separator)
	for _, root := range []string{"..", filepath.Join("..", "..", "cmd")} {
		eachGoFile(t, root, false, func(fset *token.FileSet, f *ast.File) {
			if strings.HasPrefix(fset.File(f.Pos()).Name(), vtime) {
				return
			}
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "sync" || path == "sync/atomic" {
					t.Errorf("%s: imports %s above the scheduler", fset.Position(imp.Pos()), path)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.GoStmt:
					t.Errorf("%s: a go statement above the scheduler", fset.Position(n.Pos()))
				case *ast.SelectStmt:
					t.Errorf("%s: a select statement above the scheduler", fset.Position(n.Pos()))
				}
				return true
			})
		})
	}
}
