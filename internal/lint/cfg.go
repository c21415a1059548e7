package lint

import (
	"go/ast"
	"go/token"
)

// This file is the control-flow layer: a per-function-body basic-block
// graph with edges for if/for/range/switch/type-switch/select, goto and
// labeled break/continue, fallthrough, return and panic, plus the
// must-execute forward dataflow closecheck's summaries are built on.
// It is go/ast only: the builder never needs type information, and
// anything it cannot model (an unresolved label,
// an empty select) degrades to fewer edges — which can only make the
// consumers quieter, never noisier.

// cfgBlock is one basic block: a maximal run of nodes with a single
// entry and exit. nodes holds whole statements for simple statements
// and the evaluated fragments of compound ones (an if statement's
// condition, a switch tag, a range operand) — so a rule that scans a
// block sees exactly the code that executes when control passes through
// it, exactly once.
type cfgBlock struct {
	index int
	nodes []ast.Node
	succs []*cfgBlock
	preds []*cfgBlock
}

// cfg is the control-flow graph of one function body.
type cfg struct {
	blocks []*cfgBlock
	entry  *cfgBlock
	// exit is the single normal-return sink; every return statement and
	// the fall-off end of the body edge here.
	exit *cfgBlock
	// panicExit collects panic edges separately: a panicking path runs
	// deferred calls but is not a normal exit, so rules that check
	// "on every path to the exit" ignore it.
	panicExit *cfgBlock
}

// cfgFrame is one enclosing breakable construct during construction.
type cfgFrame struct {
	label string
	brk   *cfgBlock // break target (nil only while unset)
	cont  *cfgBlock // continue target; nil for switch/select
}

type cfgBuilder struct {
	g   *cfg
	cur *cfgBlock // nil after a terminator (return/goto/break/...)

	frames       []cfgFrame
	labels       map[string]*cfgBlock // label name -> label block
	pendingLabel string
	nextCase     *cfgBlock // fallthrough target inside a switch clause
}

// buildCFG constructs the control-flow graph of one function body.
func buildCFG(body *ast.BlockStmt) *cfg {
	g := &cfg{}
	b := &cfgBuilder{g: g, labels: map[string]*cfgBlock{}}
	g.entry = b.newBlock()
	g.exit = b.newBlock()
	g.panicExit = b.newBlock()
	b.cur = g.entry
	b.walkStmtList(body.List)
	if b.cur != nil {
		connect(b.cur, g.exit)
	}
	return g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func connect(from, to *cfgBlock) {
	from.succs = append(from.succs, to)
	to.preds = append(to.preds, from)
}

// ensureCur guarantees a current block. After a terminator it starts a
// fresh predecessor-less block, so unreachable code is still carried in
// the graph (the path walk never reaches it, but whole-body scans do).
func (b *cfgBuilder) ensureCur() *cfgBlock {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) emit(n ast.Node) {
	if n == nil {
		return
	}
	blk := b.ensureCur()
	blk.nodes = append(blk.nodes, n)
}

// labelBlock returns (creating on first reference) the block a label
// names, so forward gotos resolve before the label is reached.
func (b *cfgBuilder) labelBlock(name string) *cfgBlock {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

// findBreak locates the break target: the innermost frame, or the frame
// carrying the label. nil when there is none (malformed input).
func (b *cfgBuilder) findBreak(label string) *cfgBlock {
	for i := len(b.frames) - 1; i >= 0; i-- {
		if label == "" || b.frames[i].label == label {
			return b.frames[i].brk
		}
	}
	return nil
}

// findContinue locates the continue target: the innermost loop frame,
// or the loop frame carrying the label.
func (b *cfgBuilder) findContinue(label string) *cfgBlock {
	for i := len(b.frames) - 1; i >= 0; i-- {
		if b.frames[i].cont == nil {
			continue
		}
		if label == "" || b.frames[i].label == label {
			return b.frames[i].cont
		}
	}
	return nil
}

func (b *cfgBuilder) walkStmtList(list []ast.Stmt) {
	for _, st := range list {
		b.walkStmt(st)
	}
}

// isPanicCall matches the builtin panic(...) expression statement.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *cfgBuilder) walkStmt(st ast.Stmt) {
	// A pending label applies only to the statement that directly
	// follows its LabeledStmt; capture and clear it unconditionally.
	label := b.pendingLabel
	b.pendingLabel = ""

	switch s := st.(type) {
	case *ast.BlockStmt:
		b.walkStmtList(s.List)

	case *ast.LabeledStmt:
		lbl := b.labelBlock(s.Label.Name)
		if b.cur != nil {
			connect(b.cur, lbl)
		}
		b.cur = lbl
		b.pendingLabel = s.Label.Name
		b.walkStmt(s.Stmt)

	case *ast.IfStmt:
		if s.Init != nil {
			b.walkStmt(s.Init)
		}
		b.emit(s.Cond)
		head := b.ensureCur()
		after := b.newBlock()
		thenB := b.newBlock()
		connect(head, thenB)
		b.cur = thenB
		b.walkStmtList(s.Body.List)
		if b.cur != nil {
			connect(b.cur, after)
		}
		if s.Else != nil {
			elseB := b.newBlock()
			connect(head, elseB)
			b.cur = elseB
			b.walkStmt(s.Else)
			if b.cur != nil {
				connect(b.cur, after)
			}
		} else {
			connect(head, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.walkStmt(s.Init)
		}
		head := b.newBlock()
		if b.cur != nil {
			connect(b.cur, head)
		}
		b.cur = head
		b.emit(s.Cond)
		body := b.newBlock()
		connect(head, body)
		after := b.newBlock()
		if s.Cond != nil {
			connect(head, after) // `for {}` exits only via break
		}
		cont := head
		var post *cfgBlock
		if s.Post != nil {
			post = b.newBlock()
			cont = post
		}
		b.frames = append(b.frames, cfgFrame{label: label, brk: after, cont: cont})
		b.cur = body
		b.walkStmtList(s.Body.List)
		b.frames = b.frames[:len(b.frames)-1]
		if post != nil {
			if b.cur != nil {
				connect(b.cur, post)
			}
			b.cur = post
			b.walkStmt(s.Post)
			if b.cur != nil {
				connect(b.cur, head)
			}
		} else if b.cur != nil {
			connect(b.cur, head)
		}
		b.cur = after

	case *ast.RangeStmt:
		// The operand is evaluated once, before iteration begins; the
		// head re-executes per iteration and carries the whole range
		// statement.
		b.emit(s.X)
		head := b.newBlock()
		if b.cur != nil {
			connect(b.cur, head)
		}
		head.nodes = append(head.nodes, s)
		body := b.newBlock()
		connect(head, body)
		after := b.newBlock()
		connect(head, after)
		b.frames = append(b.frames, cfgFrame{label: label, brk: after, cont: head})
		b.cur = body
		b.walkStmtList(s.Body.List)
		b.frames = b.frames[:len(b.frames)-1]
		if b.cur != nil {
			connect(b.cur, head)
		}
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.walkStmt(s.Init)
		}
		b.emit(s.Tag)
		b.walkCaseClauses(s.Body, label)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.walkStmt(s.Init)
		}
		b.emit(s.Assign)
		b.walkCaseClauses(s.Body, label)

	case *ast.SelectStmt:
		head := b.ensureCur()
		after := b.newBlock()
		hasDefault := false
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			// The select itself is the blocking point.
			head.nodes = append(head.nodes, s)
		}
		b.frames = append(b.frames, cfgFrame{label: label, brk: after})
		for _, cl := range s.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			clause := b.newBlock()
			connect(head, clause)
			b.cur = clause
			if cc.Comm != nil {
				b.emit(cc.Comm)
			}
			b.walkStmtList(cc.Body)
			if b.cur != nil {
				connect(b.cur, after)
			}
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = after // unreachable for `select {}`: no incoming edges

	case *ast.BranchStmt:
		name := ""
		if s.Label != nil {
			name = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if t := b.findBreak(name); t != nil && b.cur != nil {
				connect(b.cur, t)
			}
			b.cur = nil
		case token.CONTINUE:
			if t := b.findContinue(name); t != nil && b.cur != nil {
				connect(b.cur, t)
			}
			b.cur = nil
		case token.GOTO:
			if name != "" && b.cur != nil {
				connect(b.cur, b.labelBlock(name))
			}
			b.cur = nil
		case token.FALLTHROUGH:
			if b.nextCase != nil && b.cur != nil {
				connect(b.cur, b.nextCase)
			}
			b.cur = nil
		}

	case *ast.ReturnStmt:
		b.emit(s)
		connect(b.ensureCur(), b.g.exit)
		b.cur = nil

	case *ast.ExprStmt:
		b.emit(s)
		if isPanicCall(s.X) {
			connect(b.ensureCur(), b.g.panicExit)
			b.cur = nil
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assign, IncDec, Send, Go, Defer, Decl, ... — straight-line.
		b.emit(st)
	}
}

// walkCaseClauses builds the shared clause structure of switch and
// type-switch statements; b.cur is the head holding tag/assign.
func (b *cfgBuilder) walkCaseClauses(body *ast.BlockStmt, label string) {
	head := b.ensureCur()
	after := b.newBlock()
	var clauses []*ast.CaseClause
	for _, cl := range body.List {
		if cc, ok := cl.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*cfgBlock, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock()
		connect(head, blocks[i])
		if len(cc.List) == 0 {
			hasDefault = true
		}
	}
	if !hasDefault {
		connect(head, after)
	}
	b.frames = append(b.frames, cfgFrame{label: label, brk: after})
	savedNext := b.nextCase
	for i, cc := range clauses {
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.emit(e)
		}
		b.nextCase = nil
		if i+1 < len(blocks) {
			b.nextCase = blocks[i+1]
		}
		b.walkStmtList(cc.Body)
		if b.cur != nil {
			connect(b.cur, after)
		}
	}
	b.nextCase = savedNext
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

// reachable marks the blocks reachable from the entry.
func (g *cfg) reachable() []bool {
	reach := make([]bool, len(g.blocks))
	stack := []*cfgBlock{g.entry}
	reach[g.entry.index] = true
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.succs {
			if !reach[s.index] {
				reach[s.index] = true
				stack = append(stack, s)
			}
		}
	}
	return reach
}

// mustExecuteAtExit reports whether every path from the entry to the
// normal function exit executes a node matched by match. Vacuously true
// when the exit is unreachable (an infinite loop or unconditional
// panic). Unreachable blocks (dead code) stay at the vacuous true and
// never weaken the answer for the live blocks they edge into.
func (g *cfg) mustExecuteAtExit(match func(ast.Node) bool) bool {
	n := len(g.blocks)
	// in[b]: every path from the entry to the start of b has matched;
	// has[b]: b itself holds a match.
	in := make([]bool, n)
	has := make([]bool, n)
	reach := g.reachable()
	for _, blk := range g.blocks {
		for _, node := range blk.nodes {
			if match(node) {
				has[blk.index] = true
				break
			}
		}
		in[blk.index] = blk != g.entry
	}
	for changed := true; changed; {
		changed = false
		for _, blk := range g.blocks {
			if blk == g.entry || !reach[blk.index] {
				continue
			}
			v := true
			for _, p := range blk.preds {
				if !reach[p.index] {
					continue
				}
				if !(in[p.index] || has[p.index]) {
					v = false
					break
				}
			}
			if v != in[blk.index] {
				in[blk.index] = v
				changed = true
			}
		}
	}
	return in[g.exit.index]
}
