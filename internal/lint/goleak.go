package lint

import (
	"go/ast"
	"strings"
)

// goleakDirs are the packages that spawn goroutines on the serving
// path. A goroutine whose lifetime is not tied to a WaitGroup or
// channel join in the spawning function outlives its work item: it
// leaks scheduler slots, keeps frame buffers reachable, and turns a
// bounded transcode into an unbounded one under retry storms.
var goleakDirs = []string{
	"internal/transcode",
	"internal/sched",
	"internal/cluster",
	"internal/codec",
}

func init() {
	Register(&Analyzer{
		Name: "goleak",
		Doc: "in internal/transcode, internal/sched, internal/cluster " +
			"and internal/codec, flags a go statement not joined in the " +
			"same function: the goroutine must call Done on a WaitGroup " +
			"that the function Waits on, or send/close a channel the " +
			"function receives from (or be handed one of those as an " +
			"argument); also flags resolved calls into out-of-scope " +
			"packages whose transitive summary spawns an unjoined " +
			"goroutine",
		Run: runGoLeak,
	})
}

func runGoLeak(pass *Pass) {
	if !dirMatchesAny(pass.Pkg.Dir, goleakDirs) {
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
			checkGoLeak(pass, fd)
		}
	}
}

func checkGoLeak(pass *Pass, fd *ast.FuncDecl) {
	pkg := pass.Pkg
	// waited: canonical receivers of .Wait() calls anywhere in the
	// function — WaitGroups the function joins on.
	// received: canonical channels the function receives from (<-ch,
	// range ch, select case <-ch). Shared with the spawn summary.
	waited, received := collectJoins(pkg, fd.Body)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if !goStmtJoined(pkg, waited, received, g) {
			pass.Reportf(g.Pos(),
				"goroutine is not joined in this function: no Done on a waited WaitGroup, no send/close on a received channel")
		}
		return true
	})

	// Transitive leaks: a resolved call whose summary spawns an
	// unjoined goroutine leaks from here just the same, but the spawn
	// site lives in a package this rule never visits — report it at the
	// call. Callees inside the rule's own scope get their direct
	// finding at the go statement instead, so they are skipped to avoid
	// double-reporting.
	cg := pass.Mod.callGraph()
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			sum := cg.summaries[pkg.callee(x)]
			if sum == nil || !sum.spawnsUnjoined || dirMatchesAny(sum.fd.pkg.Dir, goleakDirs) {
				return true
			}
			pass.Reportf(x.Pos(),
				"call to %s starts a goroutine that is never joined (spawn reached via %s); the goroutine outlives this function's work item",
				displayName(sum.name), viaChain(sum.name, sum.spawnVia))
		}
		return true
	})
}

// poolWorkerJoined recognizes the persistent-pool shape: `go x.m()`
// where method m of x's type defers Done on a WaitGroup field of its
// receiver, and another method of the same type Waits on that field.
// The goroutine's lifetime is then owned by the pool value and joined
// at its close method, not in the spawning constructor — a deliberate
// idiom (the encoder's tile worker pool), not a leak.
func poolWorkerJoined(pkg *Package, call *ast.CallExpr) bool {
	worker := pkg.moduleCallee(call)
	if worker == nil || len(call.Args) != 0 {
		return false
	}
	recv := worker.Signature().Recv()
	if recv == nil {
		return false
	}
	field := deferredDoneField(pkg.mod.funcs[worker].decl)
	if field == "" {
		return false
	}
	// Some other method of the same type must join on that field.
	named := namedOf(recv.Type())
	for i := 0; named != nil && i < named.NumMethods(); i++ {
		m := named.Method(i)
		if fd := pkg.mod.funcs[m]; m != worker && fd != nil && waitsOnField(fd.decl, field) {
			return true
		}
	}
	return false
}

// deferredDoneField returns the receiver field f such that the method
// body contains `defer recv.f.Done()`, or "" if there is none.
func deferredDoneField(fd *ast.FuncDecl) string {
	recv := receiverName(fd)
	if recv == "" || fd.Body == nil {
		return ""
	}
	field := ""
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if field != "" {
			return false
		}
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if r, isDone := methodCall(d.Call, "Done"); isDone && strings.HasPrefix(r, recv+".") {
			field = strings.TrimPrefix(r, recv+".")
		}
		return true
	})
	return field
}

// waitsOnField reports whether the method body calls `recv.field.Wait()`.
func waitsOnField(fd *ast.FuncDecl, field string) bool {
	recv := receiverName(fd)
	if recv == "" || fd.Body == nil {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if c, isCall := n.(*ast.CallExpr); isCall {
			if r, ok := methodCall(c, "Wait"); ok && r == recv+"."+field {
				found = true
			}
		}
		return true
	})
	return found
}

// receiverName returns the bound receiver identifier of a method.
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}
