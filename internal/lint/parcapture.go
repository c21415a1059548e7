package lint

import (
	"go/ast"
	"go/token"
	"sort"
)

// parcaptureDirs scope the rule to the packages that fan work out to
// goroutines and worker pools, plus the fixture tree.
var parcaptureDirs = []string{
	"internal/transcode", "internal/sched", "internal/cluster",
	"internal/codec", "internal/vcu",
}

func init() {
	Register(&Analyzer{
		Name: "parcapture",
		Doc: "flags parallel-capture hazards in loops: (1) a closure whose " +
			"execution outlives the iteration (go statement, defer, or " +
			"stored/submitted for later) capturing a loop variable that is " +
			"shared across iterations — one assigned by the loop header " +
			"(`for k = range`, or a 3-clause loop over an outer variable); " +
			"per-iteration `:=` variables (Go 1.22 semantics) are safe and " +
			"stay silent; (2) a goroutine started in a loop, or the function " +
			"literal handed to par.Do (its loop is inside Do), writing a " +
			"captured outer variable with no lock taken in the closure, " +
			"through an lvalue no index of which names a per-iteration " +
			"variable — concurrent iterations race on it. Writes to " +
			"per-iteration slots (`res[i] = v`) and `k := k` copies stay silent",
		Run: runParCapture,
	})
}

func runParCapture(pass *Pass) {
	if !dirMatchesAny(pass.Pkg.Dir, parcaptureDirs) {
		return
	}
	for _, f := range pass.Pkg.Files {
		if f.IsTest {
			continue
		}
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkParCapture(pass, fd)
		}
	}
}

// litRole classifies how a function literal inside a loop executes.
type litRole int

const (
	litImmediate litRole = iota // func(){...}() — runs within the iteration
	litGo                       // go func(){...}()
	litDeferred                 // defer func(){...}() — runs after the loop
	litStored                   // assigned/appended/passed — schedule unknown
)

func checkParCapture(pass *Pass, fd *ast.FuncDecl) {
	// Classify every literal once: go and defer calls are recorded
	// first so the immediate-invocation scan does not claim them.
	roles := map[*ast.FuncLit]litRole{}
	claimed := map[*ast.CallExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.GoStmt:
			if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
				roles[lit] = litGo
				claimed[st.Call] = true
			}
		case *ast.DeferStmt:
			if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
				roles[lit] = litDeferred
				claimed[st.Call] = true
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || claimed[call] {
			return true
		}
		if lit, isLit := call.Fun.(*ast.FuncLit); isLit {
			roles[lit] = litImmediate
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			if _, seen := roles[lit]; !seen {
				roles[lit] = litStored
			}
		}
		return true
	})

	type findKey struct {
		pos  token.Pos
		name string
	}
	reported := map[findKey]bool{}
	report := func(pos token.Pos, name, msg string) {
		k := findKey{pos, name}
		if reported[k] {
			return
		}
		reported[k] = true
		pass.Reportf(pos, "%s", msg)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		shared := map[string]bool{}
		switch loop := n.(type) {
		case *ast.RangeStmt:
			body = loop.Body
			if loop.Tok == token.ASSIGN {
				for _, e := range []ast.Expr{loop.Key, loop.Value} {
					if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
						shared[id.Name] = true
					}
				}
			}
		case *ast.ForStmt:
			body = loop.Body
			perIter := map[string]bool{}
			if init, ok := loop.Init.(*ast.AssignStmt); ok {
				for _, lhs := range init.Lhs {
					id, isIdent := lhs.(*ast.Ident)
					if !isIdent || id.Name == "_" {
						continue
					}
					if init.Tok == token.DEFINE {
						perIter[id.Name] = true // Go 1.22: fresh per iteration
					} else {
						shared[id.Name] = true
					}
				}
			}
			// `for ; i < n; i++` advances an outer variable: shared.
			switch post := loop.Post.(type) {
			case *ast.IncDecStmt:
				if id, ok := post.X.(*ast.Ident); ok && !perIter[id.Name] {
					shared[id.Name] = true
				}
			case *ast.AssignStmt:
				for _, lhs := range post.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" && !perIter[id.Name] {
						shared[id.Name] = true
					}
				}
			}
		default:
			return true
		}

		declared := loopLocalNames(n, body)
		checkSharedCaptures(report, roles, body, shared, declared)
		ast.Inspect(body, func(m ast.Node) bool {
			if g, ok := m.(*ast.GoStmt); ok {
				if lit, isLit := g.Call.Fun.(*ast.FuncLit); isLit {
					checkConcurrentWrites(report, "goroutine started in a loop", lit, declared)
				}
			}
			return true
		})
		return true
	})

	// par.Do(n, limit, func(i int) error {...}) is the same goroutine
	// body with the loop inside Do: only the literal's own names (its
	// index parameter above all) are per-iteration.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
			return true
		}
		lit, isLit := call.Args[2].(*ast.FuncLit)
		if fn := pass.Pkg.callee(call); isLit && fn != nil && pass.Mod.funcName(fn) == "internal/par.Do" {
			checkConcurrentWrites(report, "function run by par.Do", lit, nil)
		}
		return true
	})
}

// loopLocalNames collects every name declared per-iteration: the loop
// clause's := variables plus all names defined in the body outside
// nested function literals. A closure referencing one of these sees its
// own iteration's copy (Go 1.22 loop-variable semantics / the `k := k`
// idiom), so they are never capture hazards.
func loopLocalNames(loop ast.Node, body *ast.BlockStmt) map[string]bool {
	declared := map[string]bool{}
	add := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			declared[id.Name] = true
		}
	}
	switch l := loop.(type) {
	case *ast.RangeStmt:
		if l.Tok == token.DEFINE {
			add(l.Key)
			add(l.Value)
		}
	case *ast.ForStmt:
		if init, ok := l.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
			for _, lhs := range init.Lhs {
				add(lhs)
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				for _, lhs := range st.Lhs {
					add(lhs)
				}
			}
		case *ast.RangeStmt:
			if st.Tok == token.DEFINE {
				add(st.Key)
				add(st.Value)
			}
		case *ast.DeclStmt:
			if gd, ok := st.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, isVal := spec.(*ast.ValueSpec); isVal {
						for _, name := range vs.Names {
							add(name)
						}
					}
				}
			}
		}
		return true
	})
	return declared
}

// funcLitLocalNames collects the names a literal binds itself: its
// parameters, named results, and every definition in its body.
func funcLitLocalNames(lit *ast.FuncLit) map[string]bool {
	locals := map[string]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if name.Name != "_" {
					locals[name.Name] = true
				}
			}
		}
	}
	addFields(lit.Type.Params)
	addFields(lit.Type.Results)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				for _, lhs := range st.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						locals[id.Name] = true
					}
				}
			}
		case *ast.RangeStmt:
			if st.Tok == token.DEFINE {
				for _, e := range []ast.Expr{st.Key, st.Value} {
					if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
						locals[id.Name] = true
					}
				}
			}
		case *ast.DeclStmt:
			if gd, ok := st.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, isVal := spec.(*ast.ValueSpec); isVal {
						for _, name := range vs.Names {
							if name.Name != "_" {
								locals[name.Name] = true
							}
						}
					}
				}
			}
		}
		return true
	})
	return locals
}

// checkSharedCaptures reports closures with delayed execution that
// reference a loop variable shared across iterations. A shared name
// redeclared inside the loop body (the `k := k` copy idiom) is skipped:
// closure references then bind to the per-iteration copy.
func checkSharedCaptures(report func(token.Pos, string, string), roles map[*ast.FuncLit]litRole, body *ast.BlockStmt, shared, declared map[string]bool) {
	if len(shared) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		role := roles[lit]
		if role == litImmediate {
			return true // runs inside the iteration: sees the right value
		}
		verb := map[litRole]string{
			litGo:       "started by a go statement",
			litDeferred: "deferred (it runs after the loop finishes)",
			litStored:   "stored for later execution",
		}[role]
		locals := funcLitLocalNames(lit)
		names := make([]string, 0, len(shared))
		for name := range shared {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if declared[name] || locals[name] || !mentionsIdent(lit.Body, name) {
				continue
			}
			report(lit.Pos(), name,
				"closure "+verb+" captures loop variable "+name+
					", which is shared across iterations (the loop assigns it instead of declaring it); "+
					"copy it first (`"+name+" := "+name+"`) or pass it as an argument")
		}
		return true
	})
}

// checkConcurrentWrites reports a literal that runs concurrently with
// itself — who says how — writing a captured variable with no lock
// taken in the closure. declared holds the enclosing loop's
// per-iteration names — writes to those are the one-goroutine-per-copy
// pattern and stay silent, as do writes to a slot some per-iteration
// name indexes (results[i] = v). An index that names none (errs[0] = v)
// is one slot shared by every iteration.
func checkConcurrentWrites(report func(token.Pos, string, string), who string, lit *ast.FuncLit, declared map[string]bool) {
	if litTakesLock(lit) {
		return // writes under a lock: the guarded pattern
	}
	locals := funcLitLocalNames(lit)
	perIter := func(name string) bool { return locals[name] || declared[name] }
	check := func(e ast.Expr) {
		root, ownSlot := lvalueRoot(e, perIter)
		if root == "" || root == "_" || ownSlot || perIter(root) {
			return
		}
		display := exprString(e)
		report(e.Pos(), display,
			who+" writes captured "+display+
				" without synchronization; concurrent iterations race on "+root+
				" (guard it with a lock, or give each iteration its own slot)")
	}
	ast.Inspect(lit.Body, func(m ast.Node) bool {
		switch st := m.(type) {
		case *ast.FuncLit:
			return false // a nested literal runs on its own schedule
		case *ast.AssignStmt:
			if st.Tok != token.DEFINE {
				for _, lhs := range st.Lhs {
					check(lhs)
				}
			}
		case *ast.IncDecStmt:
			check(st.X)
		}
		return true
	})
}

// lvalueRoot resolves the base identifier of an lvalue and whether
// some index on the way to it names a per-iteration variable, which
// makes it a slot of that iteration's own ("s.count" -> ("s", false);
// "res[i].n" -> ("res", true) when perIter(i); "res[0]" -> ("res",
// false); "*p" -> ("p", false)).
func lvalueRoot(e ast.Expr, perIter func(name string) bool) (root string, ownSlot bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name, ownSlot
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			ast.Inspect(x.Index, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && perIter(id.Name) {
					ownSlot = true
				}
				return !ownSlot
			})
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return "", ownSlot
		}
	}
}

// litTakesLock reports whether the literal's body calls a Lock/RLock
// method — the closure guards its shared writes itself.
func litTakesLock(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, isLock := methodCall(call, "Lock"); isLock {
				found = true
			}
			if _, isLock := methodCall(call, "RLock"); isLock {
				found = true
			}
		}
		return true
	})
	return found
}
