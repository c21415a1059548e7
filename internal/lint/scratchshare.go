package lint

import (
	"go/ast"
)

// scratchTypes are the caller-owned kernel scratch buffers (the
// allocation-free hot path): a pointer to one of these passed into a
// function is a loan, not a transfer — the callee may use it for the
// duration of the call only. Storing it in a struct field, returning
// it, or capturing it in a spawned goroutine lets two encode contexts
// share one buffer and corrupts predictions silently.
var scratchTypes = map[string]bool{
	"internal/codec/motion.Scratch":      true,
	"internal/codec/predict.NeighborBuf": true,
}

func init() {
	Register(&Analyzer{
		Name: "scratchshare",
		Doc: "flags escaping *motion.Scratch / *predict.NeighborBuf " +
			"parameters: returning the parameter, storing it into a " +
			"struct field or composite literal, sending it on a channel, " +
			"capturing it in a go statement, or passing it to a resolved " +
			"callee that (transitively) lets its parameter escape. " +
			"Scratch buffers are caller-owned loans; an escape lets two " +
			"encode contexts share one buffer",
		Run: runScratchShare,
	})
}

func runScratchShare(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		if f.IsTest {
			continue
		}
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkScratchEscapes(pass, fd)
		}
	}
}

func checkScratchEscapes(pass *Pass, fd *ast.FuncDecl) {
	// tracked maps a name to the qualified scratch type it aliases.
	// Seeded from receiver + parameters, grown by plain-ident aliasing
	// (alias := sc) in source order.
	tracked := map[string]string{}
	seed := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, field := range fields.List {
			elem := namedOf(pointee(pass.Pkg.typeOf(field.Type)))
			if elem == nil || !scratchTypes[pass.Mod.qualName(elem.Obj())] {
				continue
			}
			for _, name := range field.Names {
				if name.Name != "_" {
					tracked[name.Name] = pass.Mod.qualName(elem.Obj())
				}
			}
		}
	}
	seed(fd.Recv)
	seed(fd.Type.Params)
	if len(tracked) == 0 {
		return
	}

	// go-statement calls are reported by the GoStmt case below; the
	// call-site escape check must not double-report them.
	goCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			goCalls[g.Call] = true
		}
		return true
	})
	cg := pass.Mod.callGraph()

	trackedIdent := func(e ast.Expr) (string, string, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return "", "", false
		}
		q, isTracked := tracked[id.Name]
		return id.Name, q, isTracked
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				if i >= len(st.Rhs) {
					break
				}
				name, q, ok := trackedIdent(st.Rhs[i])
				if !ok {
					continue
				}
				switch l := lhs.(type) {
				case *ast.Ident:
					// Plain aliasing stays inside the function.
					if l.Name != "_" {
						tracked[l.Name] = q
					}
				default:
					pass.Reportf(st.Pos(),
						"*%s parameter %s stored into %s; scratch buffers are caller-owned and must not escape",
						displayName(q), name, exprString(lhs))
				}
			}
		case *ast.ReturnStmt:
			for _, res := range st.Results {
				if name, q, ok := trackedIdent(res); ok {
					pass.Reportf(res.Pos(),
						"*%s parameter %s returned; scratch buffers are caller-owned and must not escape",
						displayName(q), name)
				}
			}
		case *ast.SendStmt:
			if name, q, ok := trackedIdent(st.Value); ok {
				pass.Reportf(st.Pos(),
					"*%s parameter %s sent on a channel; scratch buffers are caller-owned and must not escape",
					displayName(q), name)
			}
		case *ast.CompositeLit:
			for _, el := range st.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if name, q, ok := trackedIdent(v); ok {
					pass.Reportf(v.Pos(),
						"*%s parameter %s captured in a composite literal; scratch buffers are caller-owned and must not escape",
						displayName(q), name)
				}
			}
		case *ast.CallExpr:
			// Handing the loan to a helper is fine — unless the helper
			// (or anything it resolves into, any depth down) leaks it.
			if goCalls[st] {
				return true
			}
			sum := cg.summaries[pass.Pkg.callee(st)]
			if sum == nil || len(sum.paramEscapes) == 0 ||
				sum.variadic || st.Ellipsis.IsValid() || len(st.Args) != sum.paramCount {
				return true
			}
			for i, arg := range st.Args {
				name, q, ok := trackedIdent(arg)
				if !ok {
					continue
				}
				chain, escapes := sum.paramEscapes[i]
				if !escapes {
					continue
				}
				if !sum.scratchParams[i] {
					continue
				}
				pass.Reportf(arg.Pos(),
					"*%s parameter %s passed to %s, which lets it escape (via %s); scratch buffers are caller-owned and must not escape",
					displayName(q), name, displayName(sum.name), viaChain(sum.name, chain))
			}
		case *ast.GoStmt:
			reported := false
			if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if reported {
						return false
					}
					if id, ok := m.(*ast.Ident); ok {
						if q, isTracked := tracked[id.Name]; isTracked {
							pass.Reportf(st.Pos(),
								"*%s parameter %s captured by a go statement; the goroutine may outlive the call that owns the buffer",
								displayName(q), id.Name)
							reported = true
						}
					}
					return true
				})
			}
			for _, arg := range st.Call.Args {
				if reported {
					break
				}
				if name, q, ok := trackedIdent(arg); ok {
					pass.Reportf(st.Pos(),
						"*%s parameter %s passed to a go statement; the goroutine may outlive the call that owns the buffer",
						displayName(q), name)
					reported = true
				}
			}
		}
		return true
	})
}
