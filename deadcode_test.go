package adaptnoc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
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
// name, so the check can miss dead code but never invents it. A function's
// call to itself, a type's reference to itself and a method's receiver do
// not count as uses. Code that only tests need belongs in a _test.go file.
func TestNoDeadInternalCode(t *testing.T) {
	t.Parallel()
	type decl struct {
		name string
		pos  token.Position
	}
	var decls []decl
	used := map[string]bool{}
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
		declare := func(name string, pos token.Pos) {
			if internal && name != "_" && name != "init" {
				decls = append(decls, decl{name, fset.Position(pos)})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					markUses(d, map[string]bool{d.Name.Name: true}, used)
					declare(d.Name.Name, d.Pos())
					continue
				}
				markUses(d.Type, nil, used)
				if d.Body != nil {
					markUses(d.Body, nil, used)
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
					markUses(s, own, used)
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
		name := d.name[strings.LastIndex(d.name, ".")+1:]
		if !used[name] && deadcodeAllowed[name] == "" {
			t.Errorf("%s:%d: %s has no use outside tests: delete it, or move it into a _test.go file",
				d.pos.Filename, d.pos.Line, d.name)
		}
	}
}

// markUses records every identifier under n as used, except those in own
// (the declaration's own names).
func markUses(n ast.Node, own, used map[string]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !own[id.Name] {
			used[id.Name] = true
		}
		return true
	})
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
