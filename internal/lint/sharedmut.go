package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The per-reference-slot caches ([N]*video.Frame, [N]*motion.Pyramid
// arrays and scalar *motion.Pyramid fields) are built once per frame
// and then shared read-only across concurrently encoding tile workers,
// with no locks. Any write reachable from them
// outside a constructor/build function is a data race waiting for a
// tile count > 1.

// cacheElemTypes are the named types whose pointers populate the
// reference-slot caches.
var cacheElemTypes = map[string]bool{
	"internal/video.Frame":          true,
	"internal/codec/motion.Pyramid": true,
}

// pyramidTypes are the types making up cached pyramid content; a write
// through a value of one of these types mutates what tile workers read.
var pyramidTypes = map[string]bool{
	"internal/codec/motion.Pyramid":  true,
	"internal/codec/motion.PyrLevel": true,
}

func init() {
	Register(&Analyzer{
		Name: "sharedmut",
		Doc: "flags writes to the per-reference-slot frame/pyramid " +
			"caches ([N]*video.Frame, [N]*motion.Pyramid, scalar " +
			"*motion.Pyramid fields) and writes through values read " +
			"from them, outside constructor/build functions. The caches " +
			"are shared read-only across tile workers without locks",
		Run: runSharedMut,
	})
}

// isResetFunc marks re-constructors (reset/Reset prefix): scratch-reuse
// resets run at frame barriers — the previous frame's workers have
// joined and the next frame's jobs are not yet submitted — so their
// cache-field writes are the same single-owner initialization a
// constructor performs. Only sharedmut exempts them; hotalloc still
// sees reset bodies because they run per frame and must not allocate.
func isResetFunc(name string) bool {
	return strings.HasPrefix(name, "reset") || strings.HasPrefix(name, "Reset")
}

// isCacheFieldType reports whether a struct field of this type is a
// reference-slot cache.
func (m *Module) isCacheFieldType(t types.Type) bool {
	if arr, ok := under[*types.Array](t); ok {
		elem := namedOf(pointee(arr.Elem()))
		return elem != nil && cacheElemTypes[m.qualName(elem.Obj())]
	}
	elem := namedOf(pointee(t))
	return elem != nil && m.qualName(elem.Obj()) == "internal/codec/motion.Pyramid"
}

// chainInfo is what walking an lvalue/rvalue selector-index chain from
// its root identifier learns.
type chainInfo struct {
	root       *ast.Ident // leftmost identifier, nil if the root is not an ident
	cacheField bool       // a step accessed a reference-slot cache field
	crossedPtr bool       // a step dereferenced a pointer or indexed a slice
	pyramid    bool       // a step traversed cached pyramid content
}

// walkChain classifies each selector/index/deref step of e against the
// cache shapes, by the type of the operand the step applies to. A step
// whose operand has no type contributes nothing.
func walkChain(pkg *Package, e ast.Expr) chainInfo {
	var x ast.Expr
	switch e := e.(type) {
	case *ast.Ident:
		return chainInfo{root: e}
	case *ast.ParenExpr:
		return walkChain(pkg, e.X)
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return chainInfo{}
		}
		return walkChain(pkg, e.X)
	case *ast.SelectorExpr:
		x = e.X
	case *ast.IndexExpr:
		x = e.X
	case *ast.StarExpr:
		x = e.X
	default:
		return chainInfo{}
	}
	info := walkChain(pkg, x)
	bt := pkg.typeOf(x)
	if bt == nil {
		return info
	}
	if elem := pointee(bt); elem != nil {
		info.crossedPtr = true
		bt = elem
	}
	if named := namedOf(bt); named != nil && pyramidTypes[pkg.mod.qualName(named.Obj())] {
		info.pyramid = true
	}
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if sel := pkg.Info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal && pkg.mod.isCacheFieldType(sel.Type()) {
			info.cacheField = true
		}
	case *ast.IndexExpr:
		switch bt.Underlying().(type) {
		case *types.Slice, *types.Map:
			info.crossedPtr = true
		}
	}
	return info
}

func runSharedMut(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		if f.IsTest {
			continue
		}
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if isSetupFunc(fd.Name.Name) || isResetFunc(fd.Name.Name) {
				continue
			}
			checkSharedMut(pass, fd)
		}
	}
}

func checkSharedMut(pass *Pass, fd *ast.FuncDecl) {
	sc := newFuncScope(fd)

	// tainted: locals whose value was read out of a cache field, so a
	// pointer-crossing write through them mutates shared state.
	tainted := map[string]bool{}

	checkWrite := func(pos token.Pos, lhs ast.Expr) {
		if _, plain := lhs.(*ast.Ident); plain {
			return // rebinding a local is never a cache write
		}
		info := walkChain(pass.Pkg, lhs)
		if info.root != nil && sc.isFresh(info.root.Name) {
			return // value constructed in this function: not shared yet
		}
		switch {
		case info.cacheField:
			pass.Reportf(pos,
				"write to reference-slot cache %s outside a constructor; tile workers share the cache read-only",
				exprString(lhs))
		case info.root != nil && tainted[info.root.Name] && info.crossedPtr:
			pass.Reportf(pos,
				"write through %s, read from a reference-slot cache; cached frames/pyramids are immutable after construction",
				exprString(lhs))
		case info.pyramid:
			pass.Reportf(pos,
				"write to cached pyramid content %s outside its build function; pyramids are shared read-only across tiles",
				exprString(lhs))
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				checkWrite(lhs.Pos(), lhs)
				// Taint locals assigned from cache reads (p := e.refPyr[0]).
				if st.Tok != token.DEFINE && st.Tok != token.ASSIGN {
					continue
				}
				id, isIdent := lhs.(*ast.Ident)
				if !isIdent || i >= len(st.Rhs) {
					continue
				}
				rhs := walkChain(pass.Pkg, st.Rhs[i])
				if rhs.cacheField {
					tainted[id.Name] = true
				}
			}
		case *ast.IncDecStmt:
			checkWrite(st.X.Pos(), st.X)
		}
		return true
	})
}
