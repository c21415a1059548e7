package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// closecheckDirs scope the must-release rule to the packages that own
// closable resources: encoder sessions (codec), VCU queues (vcu),
// transcode/cluster/sched orchestration, plus the fixture tree.
var closecheckDirs = []string{
	"internal/transcode", "internal/codec", "internal/cluster",
	"internal/sched", "internal/vcu",
}

func init() {
	Register(&Analyzer{
		Name: "closecheck",
		Doc: "path-sensitive must-release check: a local assigned exactly " +
			"once from a constructor that (transitively) returns a fresh " +
			"Closer-bearing module type must be Closed on every normal exit " +
			"path once it has been used — directly, via defer (including the " +
			"named-return defer-close idiom), or by a resolved callee that " +
			"provably closes its parameter. Ownership transfers (returning " +
			"the value, storing it in a struct or composite literal, passing " +
			"it to a callee that retains it, capturing it in a goroutine) " +
			"silence the obligation, as does any aliasing the analysis " +
			"cannot follow",
		Run: runCloseCheck,
	})
}

func runCloseCheck(pass *Pass) {
	if !dirMatchesAny(pass.Pkg.Dir, closecheckDirs) {
		return
	}
	cg := pass.Mod.callGraph()
	for _, f := range pass.Pkg.Files {
		if f.IsTest {
			continue
		}
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCloseCheck(pass, cg, fd)
		}
	}
}

// closeCandidate is one local that the function owns a close obligation
// for: name was assigned exactly once, from a call whose resolved
// summary proves the result at its position is a freshly constructed
// closer.
type closeCandidate struct {
	name     string
	pos      token.Pos
	assign   ast.Node // the acquiring statement; its own mention of name is not a use
	from     string   // callee display name for the message
	typeName string   // closer type display name ("" when untraceable)
}

func checkCloseCheck(pass *Pass, cg *callGraph, fd *ast.FuncDecl) {
	pkg := pass.Pkg

	// Pass 1: count assignments per name (any reassignment degrades the
	// candidate to silence — the analysis tracks single-assignment locals
	// only) and collect acquisition sites.
	assignCount := map[string]int{}
	var cands []closeCandidate
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closures have their own scopes
		}
		st, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range st.Lhs {
			if id, isIdent := lhs.(*ast.Ident); isIdent && id.Name != "_" {
				assignCount[id.Name]++
			}
		}
		if len(st.Rhs) != 1 {
			return true
		}
		call, isCall := st.Rhs[0].(*ast.CallExpr)
		if !isCall {
			return true
		}
		sum := cg.summaries[pkg.callee(call)]
		if sum == nil || len(sum.closerResults) == 0 || len(st.Lhs) != len(sum.closerResults) {
			return true
		}
		for i, lhs := range st.Lhs {
			if !sum.closerResults[i] {
				continue
			}
			id, isIdent := lhs.(*ast.Ident)
			if !isIdent || id.Name == "_" {
				continue
			}
			cands = append(cands, closeCandidate{
				name:     id.Name,
				pos:      id.Pos(),
				assign:   ast.Node(st),
				from:     displayName(sum.name),
				typeName: closerResultDisplay(pass.Mod, sum.fn, i),
			})
		}
		return true
	})
	if len(cands) == 0 {
		return
	}

	g := buildCFG(fd.Body)
	for _, cand := range cands {
		if assignCount[cand.name] != 1 {
			continue
		}
		if closeObligationEscapes(cg, pkg, fd.Body, cand) {
			continue
		}
		checkCandidatePaths(pass, cg, g, cand)
	}
}

// closerResultDisplay resolves the display name of the closer type at
// result position i of the callee ("codec.Encoder"), or "" when the
// declared result type cannot be traced (pass-through constructors).
func closerResultDisplay(m *Module, fn *types.Func, i int) string {
	named := namedOf(fn.Signature().Results().At(i).Type())
	if named == nil {
		return ""
	}
	return displayName(m.qualName(named.Obj()))
}

// closeObligationEscapes reports whether the candidate's ownership
// leaves this function in a way the path walk cannot follow: returned,
// aliased, stored into a field/map/composite, address-taken, sent on a
// channel, captured by a goroutine or a non-deferred closure, or passed
// to an unresolved callee (or to a resolved one that retains it). Any
// of these transfers or obscures the obligation — degrade to silence.
func closeObligationEscapes(cg *callGraph, pkg *Package, body *ast.BlockStmt, cand closeCandidate) bool {
	name := cand.name
	isCand := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == name
	}
	mentions := func(n ast.Node) bool { return mentionsIdent(n, name) }

	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		switch st := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range st.Results {
				if isCand(res) {
					escapes = true // ownership handed to the caller
				}
			}
		case *ast.AssignStmt:
			if st == cand.assign {
				return true
			}
			for _, rhs := range st.Rhs {
				// y := x aliases; m[k] = x / s.f = x stores. Either way
				// the single-name tracking no longer covers the value.
				if isCand(rhs) {
					escapes = true
				}
			}
		case *ast.SendStmt:
			if isCand(st.Value) {
				escapes = true
			}
		case *ast.CompositeLit:
			for _, el := range st.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if isCand(v) {
					escapes = true // e.g. encs[i] = &encState{enc: enc}
				}
			}
		case *ast.UnaryExpr:
			if st.Op == token.AND && isCand(st.X) {
				escapes = true
			}
		case *ast.GoStmt:
			if mentions(st.Call) {
				escapes = true // the goroutine owns it now
			}
			return false
		case *ast.DeferStmt:
			// Deferred closes are the idiom this rule exists to accept;
			// the path walk credits them. Nothing in a defer escapes.
			return false
		case *ast.FuncLit:
			// A non-deferred closure capturing the value may stash or
			// close it on a schedule this walk cannot see.
			if mentions(st) {
				escapes = true
			}
			return false
		case *ast.CallExpr:
			for i, arg := range st.Args {
				if !isCand(arg) {
					continue
				}
				sum := cg.summaries[pkg.callee(st)]
				if sum == nil || sum.variadic || st.Ellipsis.IsValid() || len(st.Args) != sum.paramCount {
					escapes = true // unknown callee may retain it
					continue
				}
				if _, leaks := sum.paramEscapes[i]; leaks {
					escapes = true // callee stores it away — transfer
				}
				// A callee that closes it (closesParams) is credited by
				// the path walk; a callee that merely uses it is neutral.
			}
		}
		return true
	})
	return escapes
}

// checkCandidatePaths walks the CFG forward from the entry carrying
// (used, closed) per path. A finding fires when a normal exit is
// reachable with the value used but never closed; paths that never
// touch the value after acquisition stay silent, so the two-value
// constructor error return (`if err != nil { return err }` before any
// use) is accepted without special cases. Panic exits are ignored — a
// panicking path is not a leak the rule charges to this function.
func checkCandidatePaths(pass *Pass, cg *callGraph, g *cfg, cand closeCandidate) {
	const visitBudget = 4096

	type state struct {
		blk          *cfgBlock
		used, closed bool
	}
	// seen[i] has one slot per (used, closed) combination.
	seen := make([][4]bool, len(g.blocks))
	stateBit := func(used, closed bool) int {
		b := 0
		if used {
			b |= 1
		}
		if closed {
			b |= 2
		}
		return b
	}
	stack := []state{{blk: g.entry}}
	seen[g.entry.index][0] = true
	visits := 0
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visits++; visits > visitBudget {
			return // exploration too large: degrade to silence
		}
		used, closed := s.used, s.closed
		for _, node := range s.blk.nodes {
			if node == cand.assign {
				continue // the acquisition itself is not a use
			}
			if !closed && closesIdentNode(cg.summaries, pass.Pkg, node, cand.name) {
				closed = true
				continue
			}
			if !used && mentionsIdent(node, cand.name) {
				used = true
			}
		}
		if s.blk == g.exit && used && !closed {
			what := cand.typeName
			if what == "" {
				what = "value"
			}
			pass.Reportf(cand.pos,
				"%s %s returned by %s is used but not Closed on every path: a return is reachable without %s.Close() (defer the close right after the error check, or close before every return)",
				what, cand.name, cand.from, cand.name)
			return
		}
		for _, next := range s.blk.succs {
			if next == g.panicExit {
				continue
			}
			bit := stateBit(used, closed)
			if seen[next.index][bit] {
				continue
			}
			seen[next.index][bit] = true
			stack = append(stack, state{blk: next, used: used, closed: closed})
		}
	}
}
