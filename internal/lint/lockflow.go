package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
)

// This file classifies the nodes of a cfg into lock-relevant operations
// and walks the graph path-sensitively with a held-lock state. It is
// shared by lockhygiene (leak, orphan unlock, re-lock in this body or
// in a callee) and the call-graph summaries (which classes a function
// may acquire). The walk dedupes states per block and aborts past a
// visit budget; callers buffer their findings and drop them on abort,
// so an exploded graph degrades to silence, never to noise.

type lockOpKind int

const (
	opAcquire lockOpKind = iota
	opRelease
	opDeferRelease
	opCall
)

// lockOp is one lock-relevant operation inside a basic block.
type lockOp struct {
	kind lockOpKind
	// recv is the canonical receiver string of the mutex ("c.mu").
	recv string
	rw   bool // reader lock (RLock/RUnlock)
	// class is the module-wide lock identity "pkgdir.Type.field"; ""
	// when the receiver's type does not resolve to a module type.
	class string
	// callee is a resolved module callee (a function-table key), and
	// call its site (for positional argument mapping in summaries).
	callee *types.Func
	call   *ast.CallExpr
	pos    token.Pos
}

// lockKey identifies a held lock for matching: receiver + kind. The
// reader and writer sides of an RWMutex are deliberately distinct —
// releasing the wrong side is one of the bugs being looked for.
func lockSideKey(recv string, rw bool) string {
	if rw {
		return recv + "\x00R"
	}
	return recv + "\x00W"
}

func lockMethod(rw bool) string {
	if rw {
		return "RLock"
	}
	return "Lock"
}

func unlockMethod(rw bool) string {
	if rw {
		return "RUnlock"
	}
	return "Unlock"
}

// heldLock is one acquisition on the current path.
type heldLock struct {
	recv  string
	rw    bool
	class string
	pos   token.Pos
}

// lockClassOf resolves the module-wide identity of a mutex receiver
// expression "x.mu": the named module type of x, qualified by package
// dir, plus the field ("internal/sched.Worker.mu"). "" when x's type
// is not a module type.
func (p *Package) lockClassOf(recvExpr ast.Expr) string {
	sel, ok := recvExpr.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	base := namedOf(p.typeOf(sel.X))
	if base == nil {
		return ""
	}
	dir, inModule := p.mod.dirOf(base.Obj().Pkg())
	if !inModule {
		return ""
	}
	return dir + "." + base.Obj().Name() + "." + sel.Sel.Name
}

// collectLockOps classifies every node of every block.
func collectLockOps(g *cfg, p *Package) [][]lockOp {
	ops := make([][]lockOp, len(g.blocks))
	for _, blk := range g.blocks {
		for _, node := range blk.nodes {
			p.nodeOps(node, &ops[blk.index])
		}
	}
	return ops
}

// nodeOps classifies one block node. Range and select statements were
// emitted whole by the builder and are skipped whole here — their
// bodies live in other blocks and must not be double-counted — and the
// call a go statement spawns runs elsewhere.
func (p *Package) nodeOps(n ast.Node, out *[]lockOp) {
	switch node := n.(type) {
	case *ast.RangeStmt, *ast.SelectStmt, *ast.GoStmt:
		return
	case *ast.DeferStmt:
		// defer recv.Unlock() / defer recv.RUnlock(), directly or inside
		// a deferred function literal.
		appendDeferRelease := func(call *ast.CallExpr) {
			class := ""
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				class = p.lockClassOf(sel.X)
			}
			if recv, ok := methodCall(call, "Unlock"); ok {
				*out = append(*out, lockOp{kind: opDeferRelease, recv: recv, rw: false, class: class, pos: call.Pos()})
			}
			if recv, ok := methodCall(call, "RUnlock"); ok {
				*out = append(*out, lockOp{kind: opDeferRelease, recv: recv, rw: true, class: class, pos: call.Pos()})
			}
		}
		appendDeferRelease(node.Call)
		if lit, ok := node.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				switch mm := m.(type) {
				case *ast.GoStmt, *ast.FuncLit:
					return false
				case *ast.CallExpr:
					appendDeferRelease(mm)
				}
				return true
			})
		}
		return
	}

	ast.Inspect(n, func(m ast.Node) bool {
		switch mm := m.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			sel, ok := mm.Fun.(*ast.SelectorExpr)
			if !ok {
				// Same-package free-function call (helper()).
				if fn := p.moduleCallee(mm); fn != nil {
					*out = append(*out, lockOp{kind: opCall, callee: fn, call: mm, pos: mm.Pos()})
				}
				return true
			}
			recvStr := exprString(sel.X)
			switch sel.Sel.Name {
			case "Lock", "RLock":
				if recvStr != "" {
					*out = append(*out, lockOp{
						kind:  opAcquire,
						recv:  recvStr,
						rw:    sel.Sel.Name == "RLock",
						class: p.lockClassOf(sel.X),
						pos:   mm.Pos(),
					})
				}
			case "Unlock", "RUnlock":
				if recvStr != "" {
					*out = append(*out, lockOp{
						kind:  opRelease,
						recv:  recvStr,
						rw:    sel.Sel.Name == "RUnlock",
						class: p.lockClassOf(sel.X),
						pos:   mm.Pos(),
					})
				}
			default:
				if fn := p.moduleCallee(mm); fn != nil {
					*out = append(*out, lockOp{kind: opCall, callee: fn, call: mm, pos: mm.Pos()})
				}
			}
			return true
		}
		return true
	})
}

// lockEvents are the callbacks of one path walk. held slices passed to
// callbacks are snapshots of the state *before* the op applies; they
// must not be retained or mutated.
type lockEvents struct {
	onAcquire func(held []heldLock, op lockOp)
	onRelease func(op lockOp, matched bool)
	onCall    func(held []heldLock, op lockOp)
	// onExit fires per distinct state reaching the normal exit, with the
	// locks still held after the deferred releases are applied.
	onExit func(leaked []heldLock)
}

// maxLockPathVisits bounds the state exploration per function body.
const maxLockPathVisits = 4096

// walkLockPaths explores the cfg with a (held locks, pending deferred
// unlocks) state, firing events as ops apply. It returns true if the
// visit budget was exhausted — callers must then discard anything the
// events collected.
func walkLockPaths(g *cfg, ops [][]lockOp, ev lockEvents) (aborted bool) {
	type pathState struct {
		blk      *cfgBlock
		held     []heldLock
		deferred []string // lockSideKeys of pending deferred unlocks
	}
	sig := func(blkIndex int, held []heldLock, deferred []string) string {
		buf := strconv.AppendInt(make([]byte, 0, 64), int64(blkIndex), 10)
		for _, h := range held {
			buf = append(buf, '|')
			buf = append(buf, lockSideKey(h.recv, h.rw)...)
		}
		ds := append([]string(nil), deferred...)
		sort.Strings(ds)
		for _, d := range ds {
			buf = append(buf, '~')
			buf = append(buf, d...)
		}
		return string(buf)
	}

	seen := map[string]bool{}
	stack := []pathState{{blk: g.entry}}
	seen[sig(g.entry.index, nil, nil)] = true
	visits := 0
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visits++
		if visits > maxLockPathVisits {
			return true
		}
		held := st.held
		deferred := st.deferred
		for _, op := range ops[st.blk.index] {
			switch op.kind {
			case opAcquire:
				if ev.onAcquire != nil {
					ev.onAcquire(held, op)
				}
				next := make([]heldLock, len(held)+1)
				copy(next, held)
				next[len(held)] = heldLock{recv: op.recv, rw: op.rw, class: op.class, pos: op.pos}
				held = next
			case opRelease:
				idx := -1
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].recv == op.recv && held[i].rw == op.rw {
						idx = i
						break
					}
				}
				if ev.onRelease != nil {
					ev.onRelease(op, idx >= 0)
				}
				if idx >= 0 {
					next := make([]heldLock, 0, len(held)-1)
					next = append(next, held[:idx]...)
					next = append(next, held[idx+1:]...)
					held = next
				}
			case opDeferRelease:
				next := make([]string, len(deferred)+1)
				copy(next, deferred)
				next[len(deferred)] = lockSideKey(op.recv, op.rw)
				deferred = next
			case opCall:
				if len(held) > 0 && ev.onCall != nil {
					ev.onCall(held, op)
				}
			}
		}
		if st.blk == g.exit && ev.onExit != nil {
			remaining := map[string]int{}
			for _, d := range deferred {
				remaining[d]++
			}
			var leaked []heldLock
			for i := len(held) - 1; i >= 0; i-- {
				k := lockSideKey(held[i].recv, held[i].rw)
				if remaining[k] > 0 {
					remaining[k]--
					continue
				}
				leaked = append(leaked, held[i])
			}
			ev.onExit(leaked)
		}
		for _, s := range st.blk.succs {
			k := sig(s.index, held, deferred)
			if seen[k] {
				continue
			}
			seen[k] = true
			stack = append(stack, pathState{blk: s, held: held, deferred: deferred})
		}
	}
	return false
}

// declBodies returns fd's body plus every function-literal body inside
// it, each analyzed as its own control-flow graph (the outer graph
// prunes literals, so every body is seen exactly once).
func declBodies(fd *ast.FuncDecl) []*ast.BlockStmt {
	if fd.Body == nil {
		return nil
	}
	bodies := []*ast.BlockStmt{fd.Body}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != nil {
			bodies = append(bodies, lit.Body)
		}
		return true
	})
	return bodies
}
