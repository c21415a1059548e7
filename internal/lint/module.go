package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"strings"
	"sync"
)

// This file is the fact engine under every rule: the module's packages
// type-checked by go/types. A rule asks it four questions — what type
// is this expression, what does this call resolve to, how big is this
// value, is this a constant — and gets the compiler's answer or
// none. Type errors (an unresolvable import, a half-written file) are
// swallowed: the affected expressions have no recorded type, every
// consumer treats that as unknown, so a resolution failure can silence
// a finding but never invent one.

// Module is every package under one root, type-checked, plus the
// module-wide analyses computed from them.
type Module struct {
	// Path is the module path of go.mod, or the root directory's name
	// when there is none; a package's import path is Path + "/" + Dir.
	Path string
	Pkgs []*Package

	byPath  map[string]*Package         // import path -> importable package
	byTypes map[*types.Package]*Package // reverse of Package.Types
	fset    *token.FileSet

	// singleKnob caches the module-wide "who sets this config field"
	// analysis (singleknob.go), reported per declaring package.
	singleKnobOnce sync.Once
	singleKnob     []singleKnobFinding
}

// sizes is the layout every size question is answered for: the gc
// compiler on a 64-bit target, alignment and padding included.
var sizes = types.SizesFor("gc", "amd64")

// stdlib is the process-wide importer of standard-library packages,
// type-checked from GOROOT source (declarations only). They do not
// change between runs, so a test binary that loads twenty fixture trees
// checks fmt and sync once.
var stdlib struct {
	sync.Mutex
	imp types.Importer
}

// Import implements types.Importer: module packages are checked on
// demand from their parsed files — so packages are checked in import
// order whatever order they are visited in — and anything whose first
// path element has no dot is taken for the standard library. Other
// paths fail without a lookup; the checker records the error and the
// importing file's uses of the package stay untyped.
func (m *Module) Import(ipath string) (*types.Package, error) {
	if pkg := m.byPath[ipath]; pkg != nil {
		m.check(pkg)
		if pkg.Types == nil {
			return nil, fmt.Errorf("import cycle through %s", ipath)
		}
		return pkg.Types, nil
	}
	if first, _, _ := strings.Cut(ipath, "/"); strings.Contains(first, ".") {
		return nil, fmt.Errorf("%s is outside the module and the standard library", ipath)
	}
	stdlib.Lock()
	defer stdlib.Unlock()
	if stdlib.imp == nil {
		stdlib.imp = importer.ForCompiler(token.NewFileSet(), "source", nil)
	}
	return stdlib.imp.Import(ipath)
}

// check type-checks one package, test files included (an in-package
// test cannot import an importer of its package, so this adds no
// cycles). pkg.Types stays nil while the check runs, which is how
// Import recognises a cycle.
func (m *Module) check(pkg *Package) {
	if pkg.Info != nil {
		return
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	files := make([]*ast.File, len(pkg.Files))
	for i, f := range pkg.Files {
		files[i] = f.AST
	}
	conf := types.Config{Importer: m, Sizes: sizes, Error: func(error) {}}
	ipath := path.Join(m.Path, pkg.Dir)
	if strings.HasSuffix(pkg.Name, "_test") {
		ipath += "_test"
	}
	pkg.Types, _ = conf.Check(ipath, m.fset, files, pkg.Info)
	m.byTypes[pkg.Types] = pkg
}

// loadModule parses every package under root and type-checks it.
func loadModule(root string) (*Module, []Diagnostic, error) {
	fset := token.NewFileSet()
	pkgs, parseDiags, err := loadPackages(fset, root)
	if err != nil {
		return nil, nil, err
	}
	m := &Module{
		Path:    modulePath(root),
		Pkgs:    pkgs,
		byPath:  map[string]*Package{},
		byTypes: map[*types.Package]*Package{},
		fset:    fset,
	}
	for _, pkg := range pkgs {
		// External test packages are nobody's import; of two ordinary
		// packages sharing a directory the first by name wins.
		if ipath := path.Join(m.Path, pkg.Dir); !strings.HasSuffix(pkg.Name, "_test") && m.byPath[ipath] == nil {
			m.byPath[ipath] = pkg
		}
	}
	for _, pkg := range pkgs {
		m.check(pkg)
	}
	return m, parseDiags, nil
}

// modulePath reads the module path from root's go.mod; a root without
// one is a module named after its directory.
func modulePath(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module"); ok {
				if p := strings.Trim(strings.TrimSpace(rest), `"`); p != "" {
					return p
				}
			}
		}
	}
	return filepath.Base(root)
}

// dirOf returns the root-relative directory of a module package, and
// false for the standard library and anything else outside the module.
func (m *Module) dirOf(tp *types.Package) (string, bool) {
	if pkg := m.byTypes[tp]; pkg != nil {
		return pkg.Dir, true
	}
	return "", false
}

// under asserts t's underlying type to T; false for a nil t, the type
// of an expression the checker recorded nothing for.
func under[T types.Type](t types.Type) (T, bool) {
	if t == nil {
		var zero T
		return zero, false
	}
	u, ok := t.Underlying().(T)
	return u, ok
}

// pointee returns the element type of a pointer, or nil.
func pointee(t types.Type) types.Type {
	if p, ok := under[*types.Pointer](t); ok {
		return p.Elem()
	}
	return nil
}

// typeOf returns the type of an expression (or of the object an
// identifier defines or uses), nil when the checker recorded none.
func (p *Package) typeOf(e ast.Expr) types.Type {
	if e == nil {
		return nil
	}
	t := p.Info.TypeOf(e)
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.Invalid {
		return nil
	}
	return t
}

// callee resolves a call to the declared function or method it invokes
// (the generic origin of an instantiation); nil for calls of function
// values, conversions and builtins.
func (p *Package) callee(call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// pkgFunc reports the import path and name of the package-level
// function a call invokes ("time", "Now"); ok is false for methods and
// everything callee does not resolve.
func (p *Package) pkgFunc(call *ast.CallExpr) (ipath, name string, ok bool) {
	fn := p.callee(call)
	if fn == nil || fn.Pkg() == nil || fn.Signature().Recv() != nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// basicInfo returns the properties of t's underlying basic type, 0 when
// t is nil or not basic.
func basicInfo(t types.Type) types.BasicInfo {
	if b, ok := under[*types.Basic](t); ok {
		return b.Info()
	}
	return 0
}
