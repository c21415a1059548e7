package lint

import (
	"fmt"
	"go/ast"
	"go/token"
)

func init() {
	Register(&Analyzer{
		Name: "heldblock",
		Doc: "flags potentially-blocking operations — channel send/receive, " +
			"blocking select, range over a channel, Wait, or a resolved call " +
			"that can reach any of these through any chain of resolved " +
			"callees — reachable while a mutex is held on some control-flow " +
			"path; calls that release the held lock class are exempt",
		Run: runHeldBlock,
	})
}

// heldBlockDirs are the packages where a lock held across a blocking
// operation stalls the datapath: the control plane (cluster, sched) and
// the goroutine-bearing codec/transcode fan-outs, plus internal/vcu
// where the fixtures live.
var heldBlockDirs = []string{
	"internal/cluster", "internal/codec", "internal/sched",
	"internal/transcode", "internal/vcu",
}

func runHeldBlock(pass *Pass) {
	if !dirMatchesAny(pass.Pkg.Dir, heldBlockDirs) {
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
			for _, body := range declBodies(fd) {
				checkHeldBlock(pass, cg, body)
			}
		}
	}
}

func checkHeldBlock(pass *Pass, cg *callGraph, body *ast.BlockStmt) {
	g := buildCFG(body)
	ops := collectLockOps(g, pass.Pkg)
	hasAcquire := false
	for _, blockOps := range ops {
		for _, op := range blockOps {
			if op.kind == opAcquire {
				hasAcquire = true
			}
		}
	}
	if !hasAcquire {
		return
	}

	// Findings are buffered and dropped if the exploration aborts.
	type findingKey struct {
		pos  token.Pos
		what any
	}
	var pending []Diagnostic
	seen := map[findingKey]bool{}
	report := func(pos token.Pos, what any, msg string) {
		k := findingKey{pos, what}
		if seen[k] {
			return
		}
		seen[k] = true
		pending = append(pending, pass.diagnosticAt(pos, msg))
	}

	aborted := walkLockPaths(g, ops, lockEvents{
		onBlocking: func(held []heldLock, op lockOp) {
			inner := held[len(held)-1]
			report(op.pos, op.what, fmt.Sprintf(
				"%s while %s is held; a blocked holder stalls every other taker of %s (move the blocking operation outside the critical section)",
				op.what, inner.recv, inner.recv))
		},
		onCall: func(held []heldLock, op lockOp) {
			sum := cg.summaries[op.callee]
			if sum == nil || !sum.blocking {
				return
			}
			inner := held[len(held)-1]
			// A lock-management helper that releases the held class
			// before (or around) its blocking op is not holding the
			// caller's lock across it; the summary can't order the two,
			// so degrade to silence rather than accuse the idiom.
			if inner.class != "" && sum.releases[inner.class] {
				return
			}
			what := sum.blockingWhat
			if sum.blockingVia != "" {
				what += " via " + sum.blockingVia
			}
			report(op.pos, op.callee, fmt.Sprintf(
				"call to %s may block (%s) while %s is held; a blocked holder stalls every other taker of %s",
				displayName(sum.name), what, inner.recv, inner.recv))
		},
	})
	if aborted {
		return
	}
	for _, d := range pending {
		pass.emit(d)
	}
}
