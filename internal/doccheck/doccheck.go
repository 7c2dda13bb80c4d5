// Package doccheck enforces the godoc contract on a package's exported
// surface. `go vet` has no doc-comment analyzer, so `make check` gets the
// guarantee through tests that call Check — one table over the core packages
// in this package's own test, a line in a package that checks itself: every
// exported type, function, method, struct field and const/var must carry a
// doc comment.
package doccheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// Check fails t once for every exported symbol of package pkg (parsed from
// the non-test files in dir) that has no doc comment.
func Check(t *testing.T, dir, pkg string) {
	t.Helper()
	missing, err := Missing(dir, pkg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range missing {
		t.Error(m)
	}
}

// Missing returns one "file:line:col: exported <symbol> has no doc comment"
// line, sorted, for every undocumented exported symbol of package pkg in dir.
func Missing(dir, pkg string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	p, ok := pkgs[pkg]
	if !ok {
		return nil, fmt.Errorf("doccheck: package %s not found in %s", pkg, dir)
	}
	var out []string
	missing := func(what string, pos token.Pos) {
		out = append(out, fmt.Sprintf("%s: exported %s has no doc comment", fset.Position(pos), what))
	}
	for name, f := range p.Files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv != nil && !receiverExported(d.Recv) {
					continue
				}
				if d.Doc == nil {
					missing("func "+d.Name.Name, d.Pos())
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						if d.Doc == nil && s.Doc == nil {
							missing("type "+s.Name.Name, s.Pos())
						}
						// Exported struct fields need their own comments.
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								for _, id := range fld.Names {
									if id.IsExported() && fld.Doc == nil && fld.Comment == nil {
										missing("field "+s.Name.Name+"."+id.Name, id.Pos())
									}
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if !id.IsExported() {
								continue
							}
							// A group doc, a per-spec doc, or a trailing
							// comment all count.
							if d.Doc == nil && s.Doc == nil && s.Comment == nil {
								missing(d.Tok.String()+" "+id.Name, id.Pos())
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// receiverExported reports whether a method's receiver type is exported
// (methods on unexported types are not part of the godoc surface).
func receiverExported(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	typ := recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}
