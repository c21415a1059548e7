package lint

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"testing"
)

// TestFuncScopeFreshnessAndTyping checks that the checker types a
// function's locals whatever their origin: a constructor's result, an
// alias of it, a loaned parameter, a composite literal, a compound
// assignment target.
func TestFuncScopeFreshnessAndTyping(t *testing.T) {
	dir := t.TempDir()
	src := `package p

type T struct {
	N int
}

func NewT() *T { return &T{} }

func f(shared *T) {
	built := NewT()
	alias := built
	loaned := shared
	lit := &T{N: 1}
	var acc uint64
	acc += 1
	_ = acc
	_, _, _ = alias, loaned, lit
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	mod, parseDiags, err := loadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range parseDiags {
		t.Fatalf("parse diagnostic in test tree: %s", d.String())
	}
	pkg := mod.Pkgs[0]
	var fd *ast.FuncDecl
	for _, decl := range pkg.Files[0].AST.Decls {
		if d, ok := decl.(*ast.FuncDecl); ok && d.Name.Name == "f" {
			fd = d
		}
	}
	if fd == nil {
		t.Fatal("func f not found")
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		switch id.Name {
		case "built", "alias", "loaned", "shared", "lit":
			if named, ok := pointee(pkg.typeOf(id)).(*types.Named); !ok || named.Obj().Name() != "T" {
				t.Errorf("typeOf(%s) = %v, want *T", id.Name, pkg.typeOf(id))
			}
		case "acc":
			if b, ok := under[*types.Basic](pkg.typeOf(id)); !ok || b.Kind() != types.Uint64 {
				t.Errorf("typeOf(acc) = %v, want uint64", pkg.typeOf(id))
			}
		}
		return true
	})
}
