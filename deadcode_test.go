package adaptnoc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadcodeAllowed names the internal declarations that no non-test code
// calls by name but that must stay, each with its reason.
var deadcodeAllowed = map[string]string{
	"MarshalText":         "encoding/json calls it through encoding.TextMarshaler",
	"UnmarshalText":       "encoding/json calls it through encoding.TextUnmarshaler",
	"MarshalJSON":         "encoding/json calls it through json.Marshaler",
	"UnmarshalJSON":       "encoding/json calls it through json.Unmarshaler",
	"InstallTestVerifier": "test hook: package tests install an invariant checker on every new network",
	"DebugDropCredit":     "test hook: the invariant checker's tests inject a credit leak with it",
	"ReadRing":            "only reader of -traceformat ring output; goes with RingTracer once the ledger's traced rig moves to the Chrome tracer",
}

// TestNoDeadInternalCode fails on any top-level func, method, type, const
// or var declared in non-test code under internal/ that no non-test code
// of the module, or of the benchmark module, uses. Uses are matched by
// name, so the check can miss dead code but never invents it. A method
// counts as used only where it is selected on a value or type (x.M, not
// pkg.M, judged from the file's imports) or listed in an interface, so a
// method sharing its name with a type or function is not used by that
// name. A function's call to itself, a type's reference to itself and a
// method's receiver do not count as uses. Code that only tests need
// belongs in a _test.go file.
func TestNoDeadInternalCode(t *testing.T) {
	t.Parallel()
	type decl struct {
		name string
		pos  token.Position
	}
	var decls []decl
	u := uses{idents: map[string]bool{}, methods: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		imports := importNames(f)
		mark := func(n ast.Node, own map[string]bool) { u.mark(n, own, imports) }
		declare := func(name string, pos token.Pos) {
			if internal && name != "_" && name != "init" {
				decls = append(decls, decl{name, fset.Position(pos)})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					mark(d, map[string]bool{d.Name.Name: true})
					declare(d.Name.Name, d.Pos())
					continue
				}
				mark(d.Type, nil)
				if d.Body != nil {
					mark(d.Body, nil)
				}
				declare(recvName(d.Recv)+"."+d.Name.Name, d.Pos())
			case *ast.GenDecl:
				for _, s := range d.Specs {
					own := map[string]bool{}
					var ids []*ast.Ident
					switch s := s.(type) {
					case *ast.TypeSpec:
						ids = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						ids = s.Names
					}
					for _, id := range ids {
						own[id.Name] = true
						declare(id.Name, id.Pos())
					}
					mark(s, own)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(decls, func(i, j int) bool {
		a, b := decls[i].pos, decls[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
	})
	for _, d := range decls {
		dot := strings.LastIndex(d.name, ".")
		name := d.name[dot+1:]
		used := u.idents[name]
		if dot >= 0 {
			used = u.methods[name]
		}
		if !used && deadcodeAllowed[name] == "" {
			t.Errorf("%s:%d: %s has no use outside tests: delete it, or move it into a _test.go file",
				d.pos.Filename, d.pos.Line, d.name)
		}
	}
}

// uses is what non-test code names: every identifier, and among them the
// method names it selects on a non-package operand or lists in an
// interface.
type uses struct{ idents, methods map[string]bool }

// mark records the uses under n, except the identifiers in own (the
// declaration's own names). imports holds the file's package names, whose
// selections (pkg.Name) are not method uses.
func (u uses) mark(n ast.Node, own, imports map[string]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if !own[n.Name] {
				u.idents[n.Name] = true
			}
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); !ok || !imports[id.Name] {
				u.methods[n.Sel.Name] = true
			}
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, id := range m.Names {
					u.methods[id.Name] = true
				}
			}
		}
		return true
	})
}

// importNames is the set of names a file refers to its imports by: the
// explicit name, else the path's last element.
func importNames(f *ast.File) map[string]bool {
	names := map[string]bool{}
	for _, imp := range f.Imports {
		if imp.Name != nil {
			names[imp.Name.Name] = true
			continue
		}
		p, _ := strconv.Unquote(imp.Path.Value)
		names[path.Base(p)] = true
	}
	return names
}

// recvName is the receiver's type name, without pointer or type arguments.
func recvName(recv *ast.FieldList) string {
	x := recv.List[0].Type
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
