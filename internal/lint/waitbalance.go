package lint

import (
	"go/ast"
	"go/token"
	"sort"
)

func init() {
	Register(&Analyzer{
		Name: "waitbalance",
		Doc: "checks WaitGroup balance around goroutine spawns: Add must be " +
			"guaranteed before the go statement, Done must be reached on " +
			"every path of the spawned body (one level through resolved " +
			"helpers), and Add inside the spawned goroutine races Wait",
		Run: runWaitBalance,
	})
}

// waitBalanceDirs are the goroutine-bearing packages plus internal/vcu,
// where the fixtures live.
var waitBalanceDirs = []string{
	"internal/transcode", "internal/sched", "internal/cluster",
	"internal/codec", "internal/vcu",
}

func runWaitBalance(pass *Pass) {
	if !dirMatchesAny(pass.Pkg.Dir, waitBalanceDirs) {
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
			wb := &waitBalance{pass: pass, fd: fd}
			wb.check()
		}
	}
}

// wbSpawn is one go statement in the function under check.
type wbSpawn struct {
	g *ast.GoStmt
	// nested: the spawn sits inside a function literal, so the outer
	// CFG does not contain it and the Add-dominates check is skipped
	// (degrade, don't guess).
	nested bool
}

// waitBalance carries the per-function state of one check.
type waitBalance struct {
	pass *Pass
	fd   *ast.FuncDecl

	outerG *cfg
	// waited: canonical receivers this function Waits on (anywhere,
	// literals included — Wait in a cleanup closure still gates).
	waited map[string]bool
	// goLits/goCalls identify the spawned literals and calls: their Add
	// calls are the race being reported, never a legitimate pre-spawn
	// Add (see indirectAdd).
	goLits  map[*ast.FuncLit]bool
	goCalls map[*ast.CallExpr]bool
}

func (wb *waitBalance) check() {
	fd := wb.fd
	wb.waited = map[string]bool{}
	var spawns []wbSpawn
	var lits []*ast.FuncLit
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			if recv, ok := methodCall(node, "Wait"); ok {
				wb.waited[recv] = true
			}
		case *ast.FuncLit:
			lits = append(lits, node)
		case *ast.GoStmt:
			spawns = append(spawns, wbSpawn{g: node})
		}
		return true
	})
	if len(spawns) == 0 {
		return
	}
	for i := range spawns {
		for _, lit := range lits {
			if lit.Pos() <= spawns[i].g.Pos() && spawns[i].g.End() <= lit.End() {
				spawns[i].nested = true
				break
			}
		}
	}
	wb.outerG = buildCFG(fd.Body)
	wb.goLits = map[*ast.FuncLit]bool{}
	wb.goCalls = map[*ast.CallExpr]bool{}
	for _, s := range spawns {
		wb.goCalls[s.g.Call] = true
		if lit, ok := s.g.Call.Fun.(*ast.FuncLit); ok {
			wb.goLits[lit] = true
		}
	}
	for _, s := range spawns {
		if lit, ok := s.g.Call.Fun.(*ast.FuncLit); ok {
			wb.checkSpawnedLiteral(s, lit)
		} else {
			wb.checkSpawnedHelper(s)
		}
	}
}

// indirectAdd reports whether the Add for recv may happen somewhere
// this analysis cannot see — a synchronous call taking recv/&recv as an
// argument, or a non-spawned closure calling recv.Add. The dominance
// check is then skipped entirely (silence over guessing).
func (wb *waitBalance) indirectAdd(recv string) bool {
	found := false
	ast.Inspect(wb.fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch node := n.(type) {
		case *ast.CallExpr:
			if wb.goCalls[node] {
				return true
			}
			for _, arg := range node.Args {
				a := arg
				if ue, ok := arg.(*ast.UnaryExpr); ok && ue.Op == token.AND {
					a = ue.X
				}
				if exprString(a) == recv {
					found = true
				}
			}
		case *ast.FuncLit:
			if !wb.goLits[node] && nodeCallsMethodOn(node.Body, recv, "Add") {
				found = true
			}
			return false
		}
		return true
	})
	return found
}

// checkAddDominates verifies that some recv.Add() executes on every
// path before the spawn.
func (wb *waitBalance) checkAddDominates(s wbSpawn, recv string) {
	if s.nested || !wb.waited[recv] || wb.indirectAdd(recv) {
		return
	}
	match := func(n ast.Node) bool { return nodeCallsMethodOn(n, recv, "Add") }
	if !wb.outerG.executedBefore(match, s.g) {
		wb.pass.Reportf(s.g.Pos(),
			"no %s.Add() is guaranteed before this goroutine spawns; %s.Wait() can return before the goroutine is counted",
			recv, recv)
	}
}

// checkSpawnedLiteral checks a `go func(){...}()` body directly.
func (wb *waitBalance) checkSpawnedLiteral(s wbSpawn, lit *ast.FuncLit) {
	// Candidate WaitGroups: receivers of Done/Add calls in the body.
	recvExprs := map[string]ast.Expr{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Done" && sel.Sel.Name != "Add") {
			return true
		}
		if recv := exprString(sel.X); recv != "" {
			if _, seen := recvExprs[recv]; !seen {
				recvExprs[recv] = sel.X
			}
		}
		return true
	})
	recvs := make([]string, 0, len(recvExprs))
	for r := range recvExprs {
		recvs = append(recvs, r)
	}
	sort.Strings(recvs)

	litG := buildCFG(lit.Body)
	for _, recv := range recvs {
		if !wb.waited[recv] && !wb.pass.Pkg.isNamed(recvExprs[recv], "sync.WaitGroup") {
			continue
		}
		// Add inside the spawned body races the Wait that balances it.
		if wb.waited[recv] {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.GoStmt, *ast.FuncLit:
					return false
				case *ast.CallExpr:
					if r, ok := methodCall(node, "Add"); ok && r == recv {
						wb.pass.Reportf(node.Pos(),
							"%s.Add() inside the spawned goroutine races %s.Wait(); call Add before the go statement",
							recv, recv)
					}
				}
				return true
			})
		}
		// Done must be reached on every path of the body.
		if nodeCallsMethodOn(lit.Body, recv, "Done") {
			match := func(n ast.Node) bool { return nodeCallsMethodOn(n, recv, "Done") }
			if !litG.mustExecuteAtExit(match) {
				wb.pass.Reportf(s.g.Pos(),
					"%s.Done() is not reached on every path of this goroutine; a missed Done hangs %s.Wait()",
					recv, recv)
			}
			wb.checkAddDominates(s, recv)
		}
	}
}

// checkSpawnedHelper checks `go helper(&wg, ...)` through the helper's
// call-graph summary: the handed WaitGroup must be Done'd on every path
// of the helper, and must not be Add'ed inside it.
func (wb *waitBalance) checkSpawnedHelper(s wbSpawn) {
	g := s.g
	sum := wb.pass.Mod.callGraph().summaries[wb.pass.Pkg.callee(g.Call)]
	if sum == nil || len(sum.wgParams) == 0 {
		return
	}
	// Positional arg->param mapping requires an exact match: variadic
	// helpers or spread calls degrade to silence.
	if g.Call.Ellipsis.IsValid() || sum.variadic || sum.paramCount != len(g.Call.Args) {
		return
	}
	helper := displayName(sum.name)
	positions := make([]int, 0, len(sum.wgParams))
	for pi := range sum.wgParams {
		positions = append(positions, pi)
	}
	sort.Ints(positions)
	for _, pi := range positions {
		arg := g.Call.Args[pi]
		if ue, ok := arg.(*ast.UnaryExpr); ok && ue.Op == token.AND {
			arg = ue.X
		}
		recv := exprString(arg)
		if recv == "" {
			continue
		}
		if !wb.waited[recv] && !wb.pass.Pkg.isNamed(arg, "sync.WaitGroup") {
			continue
		}
		fact := sum.wgParams[pi]
		if fact.addsInside && wb.waited[recv] {
			wb.pass.Reportf(g.Pos(),
				"%s calls Add on the WaitGroup it is handed; Add inside the spawned goroutine races %s.Wait()",
				helper, recv)
		}
		if fact.doneEver && !fact.doneAlways {
			wb.pass.Reportf(g.Pos(),
				"%s does not call Done on its WaitGroup argument on every path; a missed Done hangs %s.Wait()",
				helper, recv)
		}
		if fact.doneEver {
			wb.checkAddDominates(s, recv)
		}
	}
}
