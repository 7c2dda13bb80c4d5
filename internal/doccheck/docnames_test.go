package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// goNames is what the non-test Go under internal/ and cmd/ declares: the
// top-level names of each package, the methods and fields of each type
// (keyed both by bare type name and by "pkg.Type") and every function and
// method name; plus every string literal there and in the benchmark module.
type goNames struct {
	pkgs     map[string]map[string]bool
	members  map[string]map[string]bool
	funcs    map[string]bool
	literals map[string]bool
}

func addName(m map[string]map[string]bool, key, name string) {
	if m[key] == nil {
		m[key] = make(map[string]bool)
	}
	m[key][name] = true
}

// recvType returns the type name of a method receiver.
func recvType(recv *ast.FieldList) string {
	typ := recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.IndexListExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// eachGoFile parses every Go file under root, outside testdata: the test
// files when tests is set, the non-test files otherwise. fset places the
// file's nodes.
func eachGoFile(t *testing.T, root string, tests bool, fn func(fset *token.FileSet, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err == nil {
			fn(fset, f)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// declaredNames collects the declarations under the decl roots, and the
// string literals under those and the literal-only roots.
func declaredNames(t *testing.T, decl, literalOnly []string) goNames {
	t.Helper()
	n := goNames{pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{},
		funcs: map[string]bool{}, literals: map[string]bool{}}
	literals := func(_ *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(node ast.Node) bool {
			if lit, ok := node.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if v, err := strconv.Unquote(lit.Value); err == nil {
					n.literals[v] = true
				}
			}
			return true
		})
	}
	for _, root := range literalOnly {
		eachGoFile(t, root, false, literals)
	}
	for _, root := range decl {
		eachGoFile(t, root, false, func(fset *token.FileSet, f *ast.File) {
			literals(fset, f)
			n.addDecls(f)
		})
	}
	delete(n.pkgs, "main") // every cmd/ package is main: nothing names it
	return n
}

// addDecls records the top-level declarations of one file.
func (n goNames) addDecls(f *ast.File) {
	pkg := f.Name.Name
	member := func(typ, name string) {
		addName(n.members, typ, name)
		addName(n.members, pkg+"."+typ, name)
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			n.funcs[d.Name.Name] = true
			if d.Recv != nil {
				member(recvType(d.Recv), d.Name.Name)
			} else {
				addName(n.pkgs, pkg, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					addName(n.pkgs, pkg, s.Name.Name)
					var fields *ast.FieldList
					switch tt := s.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields
					case *ast.InterfaceType:
						fields = tt.Methods
					}
					if fields == nil {
						continue
					}
					for _, fld := range fields.List {
						typ := fld.Type
						if st, ok := typ.(*ast.StarExpr); ok {
							typ = st.X
						}
						if id, ok := typ.(*ast.Ident); ok && len(fld.Names) == 0 {
							member(s.Name.Name, id.Name) // embedded: promoted under its type name
						}
						for _, id := range fld.Names {
							member(s.Name.Name, id.Name)
							if _, isMethod := fld.Type.(*ast.FuncType); isMethod {
								n.funcs[id.Name] = true
							}
						}
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						addName(n.pkgs, pkg, id.Name)
					}
				}
			}
		}
	}
}

// goRef matches a backticked span that reads as a Go name: one to three
// dotted identifiers, optionally called. A lone identifier counts only when
// called.
var goRef = regexp.MustCompile(`^([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\.([A-Za-z_]\w*))?(\([^()]*\))?$`)

// fileExt are the extensions of the files the docs name (`runner.go`,
// `golden.om`), which read like a dotted Go name.
var fileExt = map[string]bool{"go": true, "md": true, "json": true, "jsonl": true, "txt": true,
	"om": true, "sh": true, "keep": true, "mod": true}

// builtins are the predeclared functions a doc formula may call.
var builtins = map[string]bool{"len": true, "cap": true, "min": true, "max": true, "append": true,
	"copy": true, "make": true, "new": true}

// resolve reports whether a goRef match names a declaration, and whether it
// is a Go name at all. A dotted span is judged when it starts with a package
// name, an exported identifier or a declared type; anything else (a
// variable, a file name) is not, nor is a string the code itself uses (a
// trace event kind, a metric name). A lone called identifier must be a
// declared function or method, or a builtin.
func (n goNames) resolve(ref []string) (judged, ok bool) {
	x, y, z, call := ref[1], ref[2], ref[3], ref[4]
	if y == "" {
		return call != "" && !builtins[x], n.funcs[x]
	}
	if n.literals[ref[0]] || (z == "" && fileExt[y]) {
		return false, false
	}
	if decls, isPkg := n.pkgs[x]; isPkg {
		if !decls[y] {
			return true, false
		}
		return true, z == "" || n.members[x+"."+y][z]
	}
	if _, isType := n.members[x]; !isType && !ast.IsExported(x) {
		return false, false
	}
	return true, z == "" && n.members[x][y]
}

// testFuncs returns the top-level functions the test files under roots
// declare: every test, benchmark, fuzz target and example there is.
func testFuncs(t *testing.T, roots []string) map[string]bool {
	t.Helper()
	funcs := map[string]bool{}
	for _, root := range roots {
		eachGoFile(t, root, true, func(_ *token.FileSet, f *ast.File) {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					funcs[fn.Name.Name] = true
				}
			}
		})
	}
	return funcs
}

// testRef matches a backticked span that is one test, benchmark, fuzz target
// or example name and nothing else (not a subtest path, not a pattern).
var testRef = regexp.MustCompile(`^(?:Test|Benchmark|Fuzz|Example)(?:[A-Z0-9_]\w*)?$`)

// TestDocNamesResolve fails on every backticked pkg.Ident, Type.Method or
// pkg.Type.Method in the top-level docs that no non-test declaration under
// internal/ or cmd/ carries, and on every backticked test, benchmark, fuzz
// target or example name that no test file under internal/, cmd/, examples/
// or benchmark/ declares, so a rename or deletion cannot leave the docs
// describing code, or citing a check, that is gone.
func TestDocNamesResolve(t *testing.T) {
	names := declaredNames(t, []string{"../../internal", "../../cmd"}, []string{"../../benchmark"})
	tests := testFuncs(t, []string{"../../internal", "../../cmd", "../../examples", "../../benchmark"})
	span := regexp.MustCompile("`([^`\n]+)`")
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(filepath.Join("../..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range span.FindAllStringSubmatch(line, -1) {
				if testRef.MatchString(m[1]) {
					if !tests[m[1]] {
						t.Errorf("%s:%d: `%s` is declared in no test file", doc, i+1, m[1])
					}
					continue
				}
				ref := goRef.FindStringSubmatch(m[1])
				if ref == nil {
					continue
				}
				if judged, ok := names.resolve(ref); judged && !ok {
					t.Errorf("%s:%d: `%s` names no declaration under internal/ or cmd/", doc, i+1, m[1])
				}
			}
		}
	}
}

// TestDesignSectionsNameTheirTests holds DESIGN.md to being a contract: every
// top-level section but the substitution table cites, in backticks, at least
// one test, benchmark or fuzz target that pins what it states (whether the
// name exists is TestDocNamesResolve's check).
func TestDesignSectionsNameTheirTests(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	cite := regexp.MustCompile("`(?:Test|Benchmark|Fuzz)[A-Z0-9_]\\w*`")
	for _, sec := range strings.Split(string(raw), "\n## ")[1:] {
		if !strings.HasPrefix(sec, "Substitutions") && !cite.MatchString(sec) {
			t.Errorf("DESIGN.md: section %q names no test", strings.SplitN(sec, "\n", 2)[0])
		}
	}
}
