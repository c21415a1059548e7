package lint

import (
	"go/ast"
	"go/types"
)

// wellKnownErrFuncs are the standard-library functions and methods
// whose error result is worth checking. The standard library returns
// errors nobody reads (fmt.Println, a strings.Builder write), so outside
// the module only this list is charged; inside it every error is.
var wellKnownErrFuncs = map[string]bool{
	"Close": true, "Flush": true, "Sync": true,
	"WriteString": true, "WriteByte": true, "WriteRune": true,
	"Setenv": true, "Unsetenv": true,
	"Remove": true, "RemoveAll": true, "Mkdir": true, "MkdirAll": true,
	"Chdir": true, "Rename": true, "Truncate": true,
}

func init() {
	Register(&Analyzer{
		Name: "errdrop",
		Doc: "flags discarded error returns (`_ = f()`, `v, _ := f()`, bare and " +
			"deferred calls) for module functions whose last result is error " +
			"and for well-known stdlib error returners; test files are exempt",
		Run: runErrDrop,
	})
}

func runErrDrop(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		if f.IsTest {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.ExprStmt:
				if call, ok := node.X.(*ast.CallExpr); ok && callReturnsError(pass, call) {
					pass.Reportf(node.Pos(), "error result of %s is silently dropped; handle it or add //lint:ignore errdrop <reason>", calleeName(call))
				}
			case *ast.DeferStmt:
				if callReturnsError(pass, node.Call) {
					pass.Reportf(node.Pos(), "deferred %s drops its error; wrap it or add //lint:ignore errdrop <reason>", calleeName(node.Call))
				}
			case *ast.GoStmt:
				if callReturnsError(pass, node.Call) {
					pass.Reportf(node.Pos(), "goroutine call %s drops its error", calleeName(node.Call))
				}
			case *ast.AssignStmt:
				// Single call on the RHS with a blank in the error slot:
				// `_ = f()`, `v, _ := f()`, `_, _ = f()`.
				if len(node.Rhs) != 1 {
					return true
				}
				call, ok := node.Rhs[0].(*ast.CallExpr)
				if !ok || !callReturnsError(pass, call) {
					return true
				}
				last, ok := node.Lhs[len(node.Lhs)-1].(*ast.Ident)
				if ok && last.Name == "_" {
					pass.Reportf(node.Pos(), "error result of %s assigned to _; handle it or add //lint:ignore errdrop <reason>", calleeName(call))
				}
			}
			return true
		})
	}
}

var errorType = types.Universe.Lookup("error").Type()

// callReturnsError reports whether the call invokes a declared function
// or method whose final result is an error this rule charges: any
// function of the module, a well-known one outside it. Calls of
// function values and unresolved calls are never charged.
func callReturnsError(pass *Pass, call *ast.CallExpr) bool {
	fn := pass.Pkg.callee(call)
	if fn == nil {
		return false
	}
	res := fn.Signature().Results()
	if res.Len() == 0 || !types.Identical(res.At(res.Len()-1).Type(), errorType) {
		return false
	}
	if _, inModule := pass.Mod.dirOf(fn.Pkg()); inModule {
		return true
	}
	return wellKnownErrFuncs[fn.Name()]
}

// calleeName renders the callee for diagnostics.
func calleeName(call *ast.CallExpr) string {
	if s := exprString(call.Fun); s != "" {
		return s
	}
	return "call"
}
