package lint

import (
	"go/ast"
	"go/token"
)

func init() {
	Register(&Analyzer{
		Name: "lockhygiene",
		Doc: "path-sensitive lock hygiene over the control-flow graph: every " +
			"acquired mutex must be released on every path to the function " +
			"exit (directly or by defer), re-locking a held mutex — in this " +
			"body, or in a resolved callee any depth down — is a " +
			"self-deadlock, and an unlock must be reachable only with the " +
			"lock held",
		Run: runLockHygiene,
	})
}

// runLockHygiene keeps the deferred-unlock set as part of the per-path
// state: a `defer recv.Unlock()` only covers the paths that actually
// execute it, so a defer inside an unrelated branch does not silence a
// leak on the other (the badBranchDefer fixture).
func runLockHygiene(pass *Pass) {
	cg := pass.Mod.callGraph()
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			// Each body (declaration and nested literals) gets its own
			// graph; cross-function handoff still needs //lint:ignore.
			for _, body := range declBodies(fd) {
				checkLockPaths(pass, cg, body)
			}
		}
	}
}

func checkLockPaths(pass *Pass, cg *callGraph, body *ast.BlockStmt) {
	g := buildCFG(body)
	ops := collectLockOps(g, pass.Pkg)

	// acquiredSides / releasedSides gate the messages: a function with
	// no acquire of a side is a handoff release target (stays silent
	// unless it also locks), and a leak with *some* release elsewhere in
	// the function is a some-path leak, not a never-released one.
	acquiredSides := map[string]bool{}
	releasedSides := map[string]bool{}
	nAcquires := 0
	for _, blockOps := range ops {
		for _, op := range blockOps {
			switch op.kind {
			case opAcquire:
				acquiredSides[lockSideKey(op.recv, op.rw)] = true
				nAcquires++
			case opRelease, opDeferRelease:
				releasedSides[lockSideKey(op.recv, op.rw)] = true
			}
		}
	}
	if nAcquires == 0 {
		return
	}

	// Findings are buffered and flushed only if the walk completes: an
	// aborted exploration proves nothing about the unexplored paths and
	// must not report on the explored ones either.
	type findingKey struct {
		pos  token.Pos
		what string
	}
	var pending []Diagnostic
	seen := map[findingKey]bool{}
	report := func(pos token.Pos, what, msg string) {
		k := findingKey{pos, what}
		if seen[k] {
			return
		}
		seen[k] = true
		pending = append(pending, pass.diagnosticAt(pos, msg))
	}

	aborted := walkLockPaths(g, ops, lockEvents{
		onAcquire: func(held []heldLock, op lockOp) {
			for _, h := range held {
				if h.recv == op.recv {
					report(op.pos, "double",
						op.recv+"."+lockMethod(op.rw)+"() while "+op.recv+
							" is already held by this function; sync mutexes are not reentrant (self-deadlock)")
					return
				}
			}
		},
		// The second Lock may sit in another body: a resolved callee whose
		// summary may acquire a class held here is the same self-deadlock.
		// Classes are per type, not per value, so this also names a nested
		// acquisition on a sibling value — a lock-order hazard in its own
		// right.
		onCall: func(held []heldLock, op lockOp) {
			sum := cg.summaries[op.callee]
			if sum == nil {
				return
			}
			for _, h := range held {
				if via, acquires := sum.acquires[h.class]; acquires {
					report(op.pos, "callee "+h.class,
						"call to "+displayName(sum.name)+" acquires "+displayName(h.class)+
							" (via "+viaChain(sum.name, via)+") while "+h.recv+
							" is held; sync mutexes are not reentrant (self-deadlock)")
				}
			}
		},
		onRelease: func(op lockOp, matched bool) {
			if !matched && acquiredSides[lockSideKey(op.recv, op.rw)] {
				report(op.pos, "orphan",
					op.recv+"."+unlockMethod(op.rw)+"() on a path where "+op.recv+" is not locked")
			}
		},
		onExit: func(leaked []heldLock) {
			for _, h := range leaked {
				if releasedSides[lockSideKey(h.recv, h.rw)] {
					report(h.pos, "leak",
						h.recv+"."+lockMethod(h.rw)+"() is not released on every path through this function; "+
							"unlock before every return or use defer "+h.recv+"."+unlockMethod(h.rw)+"()")
				} else {
					report(h.pos, "leak",
						h.recv+"."+lockMethod(h.rw)+"() is never released in this function; add defer "+
							h.recv+"."+unlockMethod(h.rw)+"()")
				}
			}
		},
	})
	if aborted {
		return
	}
	for _, d := range pending {
		pass.emit(d)
	}
}
