package lint

import (
	"go/ast"
	"strings"
)

// exprString renders the subset of expressions that appear as lvalues
// and method receivers ("mu", "p.mu", "s.shards[i].mu") into a
// canonical string, so two references to the same lvalue compare equal.
// Unsupported shapes return "" and are treated as non-matching.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := exprString(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.IndexExpr:
		base := exprString(x.X)
		idx := exprString(x.Index)
		if base == "" {
			return ""
		}
		return base + "[" + idx + "]"
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.StarExpr:
		return exprString(x.X)
	case *ast.BasicLit:
		return x.Value
	case *ast.CallExpr:
		// e.g. q.shard(i).mu — treat the call result as opaque but
		// stable within a function for matching purposes.
		fn := exprString(x.Fun)
		if fn == "" {
			return ""
		}
		args := make([]string, 0, len(x.Args))
		for _, a := range x.Args {
			args = append(args, exprString(a))
		}
		return fn + "(" + strings.Join(args, ",") + ")"
	}
	return ""
}
