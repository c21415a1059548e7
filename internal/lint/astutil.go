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

// mentionsIdent reports whether an identifier named name occurs in n as
// a value reference. Selector field names do not count (x.name selects a
// field, it does not reference the variable), so `enc.Close()` mentions
// enc but `job.enc` does not mention a local called enc.
func mentionsIdent(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if sel, ok := m.(*ast.SelectorExpr); ok {
			if mentionsIdent(sel.X, name) {
				found = true
			}
			return false
		}
		if id, ok := m.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return true
	})
	return found
}

// methodCall matches e against a method call pattern recv.<name>() and
// returns the canonical receiver string. ok is false if e is not a
// call of that method name or the receiver cannot be canonicalised.
func methodCall(e ast.Expr, name string) (recv string, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != name {
		return "", false
	}
	r := exprString(sel.X)
	if r == "" {
		return "", false
	}
	return r, true
}

// funcBodies yields every function body in a file (declarations and
// literals) along with the name of the innermost named function, which
// analyzers use for allowlisting. Function literals inherit the name of
// the enclosing declaration.
func funcBodies(f *ast.File, visit func(name string, body *ast.BlockStmt)) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		visit(fd.Name.Name, fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok && fl.Body != nil {
				visit(fd.Name.Name, fl.Body)
			}
			return true
		})
	}
}
