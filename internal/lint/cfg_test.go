package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody parses one function body for CFG tests.
func parseBody(t *testing.T, fn string) *ast.BlockStmt {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "t.go", "package p\n"+fn, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			return fd.Body
		}
	}
	t.Fatal("no function in source")
	return nil
}

// nodeHasCall reports whether n contains a call to the named function.
func nodeHasCall(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
				found = true
			}
		}
		return !found
	})
	return found
}

// callMatcher matches block nodes containing a call to name.
func callMatcher(name string) func(ast.Node) bool {
	return func(n ast.Node) bool { return nodeHasCall(n, name) }
}

// findBlock returns the first block with a node matching match, or nil.
func findBlock(g *cfg, match func(ast.Node) bool) *cfgBlock {
	for _, blk := range g.blocks {
		for _, n := range blk.nodes {
			if match(n) {
				return blk
			}
		}
	}
	return nil
}

func TestCFGGotoForward(t *testing.T) {
	g := buildCFG(parseBody(t, `
func f() {
	before()
	goto done
	dead()
done:
	after()
}`))
	reach := g.reachable()
	deadBlk := findBlock(g, callMatcher("dead"))
	if deadBlk == nil {
		t.Fatal("dead() not carried in the graph")
	}
	if reach[deadBlk.index] {
		t.Error("code after goto must be unreachable")
	}
	if !g.mustExecuteAtExit(callMatcher("after")) {
		t.Error("the goto target must execute on every path to the exit")
	}
	if g.mustExecuteAtExit(callMatcher("dead")) && reach[g.exit.index] {
		t.Error("dead code must not count as must-executing")
	}
}

func TestCFGGotoBackward(t *testing.T) {
	g := buildCFG(parseBody(t, `
func f(i int) {
loop:
	step()
	if i < 10 {
		goto loop
	}
	after()
}`))
	stepBlk := findBlock(g, callMatcher("step"))
	if stepBlk == nil {
		t.Fatal("step() block not found")
	}
	if len(stepBlk.preds) < 2 {
		t.Errorf("backward goto must form a cycle: step block has %d preds", len(stepBlk.preds))
	}
	if !g.reachable()[g.exit.index] {
		t.Error("exit must stay reachable through the loop")
	}
	if !g.mustExecuteAtExit(callMatcher("step")) {
		t.Error("the loop body runs at least once before the exit")
	}
}

func TestCFGLabeledBreakContinue(t *testing.T) {
	g := buildCFG(parseBody(t, `
func f(n int) {
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == 1 {
				continue outer
			}
			if j == 2 {
				break outer
			}
			inner()
		}
	}
	after()
}`))
	if !g.mustExecuteAtExit(callMatcher("after")) {
		t.Error("both labeled exits land on the statement after the outer loop")
	}
	if g.mustExecuteAtExit(callMatcher("inner")) {
		t.Error("inner() is skipped by continue outer, it cannot must-execute")
	}
}

func TestCFGSelectBlocking(t *testing.T) {
	g := buildCFG(parseBody(t, `
func f(a, b chan int) {
	select {
	case <-a:
		recvd()
	case b <- 1:
		sent()
	}
	after()
}`))
	isSelect := func(n ast.Node) bool { _, ok := n.(*ast.SelectStmt); return ok }
	selBlk := findBlock(g, isSelect)
	if selBlk == nil {
		t.Fatal("a select without default is a blocking point and must appear in a block")
	}
	// The clause bodies live in their own reachable blocks, not inside
	// the atomic select node's block.
	isStmtCall := func(name string) func(ast.Node) bool {
		return func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			return ok && nodeHasCall(es, name)
		}
	}
	reach := g.reachable()
	for _, name := range []string{"recvd", "sent"} {
		blk := findBlock(g, isStmtCall(name))
		if blk == nil || blk == selBlk {
			t.Errorf("%s() must be in its own clause block", name)
		} else if !reach[blk.index] {
			t.Errorf("%s() clause block must be reachable", name)
		}
	}
	if !g.mustExecuteAtExit(callMatcher("after")) {
		t.Error("all clause bodies rejoin after the select")
	}
}

func TestCFGSelectDefault(t *testing.T) {
	g := buildCFG(parseBody(t, `
func f(a chan int) {
	select {
	case <-a:
	default:
		fast()
	}
}`))
	isSelect := func(n ast.Node) bool { _, ok := n.(*ast.SelectStmt); return ok }
	if findBlock(g, isSelect) != nil {
		t.Error("a select with default cannot block and must not be emitted as a node")
	}
}

func TestCFGEmptySelect(t *testing.T) {
	g := buildCFG(parseBody(t, `
func f() {
	select {}
}`))
	if g.reachable()[g.exit.index] {
		t.Error("select{} never proceeds: the exit must be unreachable")
	}
}

func TestCFGPanicExit(t *testing.T) {
	g := buildCFG(parseBody(t, `
func f(ok bool) {
	if !ok {
		cleanup()
		panic("bad")
	}
	after()
}`))
	if len(g.panicExit.preds) == 0 {
		t.Error("the panic path must edge into panicExit")
	}
	if !g.mustExecuteAtExit(callMatcher("after")) {
		t.Error("a panicking path is not a normal exit; after() dominates the real one")
	}
	if g.mustExecuteAtExit(callMatcher("cleanup")) {
		t.Error("cleanup() happens only on the panic path")
	}
}

func TestCFGDeferPlacement(t *testing.T) {
	isDefer := func(n ast.Node) bool { _, ok := n.(*ast.DeferStmt); return ok }
	g := buildCFG(parseBody(t, `
func f(cond bool) {
	if cond {
		defer release()
		return
	}
	other()
}`))
	if g.mustExecuteAtExit(isDefer) {
		t.Error("a defer inside one branch must not dominate the exit")
	}
	g = buildCFG(parseBody(t, `
func f() {
	defer release()
	other()
}`))
	if !g.mustExecuteAtExit(isDefer) {
		t.Error("a top-of-body defer dominates the exit")
	}
}

func TestCFGFallthrough(t *testing.T) {
	g := buildCFG(parseBody(t, `
func f(x int) {
	switch x {
	case 0:
		first()
		fallthrough
	case 1:
		second()
	default:
		third()
	}
}`))
	firstBlk := findBlock(g, callMatcher("first"))
	secondBlk := findBlock(g, callMatcher("second"))
	if firstBlk == nil || secondBlk == nil {
		t.Fatal("clause blocks not found")
	}
	linked := false
	for _, s := range firstBlk.succs {
		if s == secondBlk {
			linked = true
		}
	}
	if !linked {
		t.Error("fallthrough must edge into the next clause block")
	}
}

func TestCFGInfiniteLoop(t *testing.T) {
	g := buildCFG(parseBody(t, `
func f() {
	for {
		spin()
	}
}`))
	if g.reachable()[g.exit.index] {
		t.Error("for {} without break never reaches the exit")
	}
	g = buildCFG(parseBody(t, `
func f(ch chan int) {
	for {
		if stop() {
			break
		}
	}
	after()
}`))
	if !g.reachable()[g.exit.index] {
		t.Error("break must make the exit reachable")
	}
	if !g.mustExecuteAtExit(callMatcher("after")) {
		t.Error("the only way out passes through after()")
	}
}
