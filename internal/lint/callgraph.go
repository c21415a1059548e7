package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the transitive interprocedural layer built on the
// module's function table: every function/method gets a summary —
// whether a Closer-typed parameter escapes it (directly or through any
// chain of resolved calls), whether it returns a caller-owned Closer,
// and whether it closes a Closer parameter on every path. Summaries are
// computed bottom-up over
// the strongly-connected-component condensation of the call graph
// (scc.go): acyclic regions converge in one pass, recursive components
// iterate to a fixed point. Every propagated fact is monotone (a set
// that only grows, a bool that only flips one way), so the iteration
// terminates; a safety cap bounds pathological components, and a
// function whose component hits the cap is reported under the
// pseudo-rule "lintbudget" rather than silently skipped — its facts
// remain sound under-approximations. An unresolved callee has no
// summary and contributes nothing: resolution failure degrades to
// silence, never invention.

// sccIterationCap bounds fixed-point passes over one recursive
// component. It is a package variable so tests can lower it to exercise
// the lintbudget path; real components converge in a handful of passes
// (facts are small monotone sets).
var sccIterationCap = 32

// summaryCall is one resolved call site inside a function body.
type summaryCall struct {
	fn *types.Func
	// argNames holds, positionally, the plain-identifier argument names
	// ("" for anything else), so param-indexed facts of the callee can be
	// mapped back onto caller parameters. Only meaningful when ellipsis
	// is false and the callee is not variadic.
	argNames []string
	ellipsis bool
}

// funcSummary is the transitive interprocedural summary of one function.
type funcSummary struct {
	fn *types.Func
	// name is Module.funcName(fn), for messages and call chains.
	name string
	fd   *funcDecl

	// calls are the resolved synchronous call sites: straight-line calls
	// plus deferred ones (both run on the calling goroutine). Calls
	// inside go statements and non-deferred function literals are
	// excluded.
	calls []summaryCall

	// paramCount/variadic describe the parameter list, for positional
	// arg->param fact mapping at call sites.
	paramCount int
	variadic   bool
	// paramNames holds the parameter names by position ("" for _).
	paramNames []string

	// closerParams marks the parameter positions typed as pointers to
	// module types with a Close method.
	closerParams map[int]bool

	// paramEscapes maps closer-typed parameter positions to the call
	// chain through which they escape ("" for a direct escape in this
	// body).
	paramEscapes map[int]string

	// closesParams: closer-typed parameter positions on which Close is
	// reached on every path to the normal exit (directly or via a callee
	// that closes its corresponding parameter). A must-fact: starts
	// false, flips true only when proven.
	closesParams map[int]bool

	// closerResults marks result positions that hand the caller a
	// Closer it becomes responsible for: a freshly constructed value of
	// a Closer type, or the passed-through result of a callee that does.
	closerResults []bool

	// capped: this function's component hit sccIterationCap before the
	// fixed point settled; facts are sound but possibly incomplete. Also
	// reported as a lintbudget diagnostic.
	capped bool
}

// callGraph caches summaries keyed like Module.funcs, plus the
// lintbudget diagnostics produced while building them.
type callGraph struct {
	summaries map[*types.Func]*funcSummary
	budget    []Diagnostic
}

// callGraph builds (once per Module) the transitive summary table.
func (m *Module) callGraph() *callGraph {
	m.cgOnce.Do(func() {
		m.cg = buildCallGraph(m)
	})
	return m.cg
}

// summaryWork keeps the per-function analysis context alive across
// fixed-point passes.
type summaryWork struct {
	sum *funcSummary
	pkg *Package
	// g is the body's CFG, built in the direct phase for the functions
	// that have a closer parameter (the must-close proof is its only
	// reader) and reused by every transfer.
	g *cfg
	// returns are the function's return statements (function literals
	// excluded), for the closerResults recomputation.
	returns []*ast.ReturnStmt
	// origins maps single-assignment local names to where their value
	// came from, for tracing returned locals back to constructors.
	origins map[string]*valueOrigin
}

// valueOrigin records where a local's value came from.
type valueOrigin struct {
	multi     bool            // assigned more than once: unusable
	callee    *types.Func     // resolved callee, nil for non-call origins
	resultPos int             // which result of the callee
	fresh     *types.TypeName // the T of a &T{} / new(T) construction
}

// cgBuilder carries the whole-module build state.
type cgBuilder struct {
	mod         *Module
	summaries   map[*types.Func]*funcSummary
	works       []*summaryWork
	closerTypes map[*types.TypeName]bool
}

func buildCallGraph(m *Module) *callGraph {
	b := &cgBuilder{
		mod:         m,
		summaries:   map[*types.Func]*funcSummary{},
		closerTypes: collectCloserTypes(m),
	}

	// Direct phase: one summary per function from its own body.
	for _, fn := range m.funcList {
		fd := m.funcs[fn]
		if fd.decl.Body == nil {
			continue
		}
		w := b.directSummary(fn, fd)
		b.summaries[fn] = w.sum
		b.works = append(b.works, w)
	}

	// Condense the call graph and propagate bottom-up: Tarjan emits
	// components callees-first, so by the time a component is processed
	// every summary it depends on outside itself is final.
	pos := make(map[*types.Func]int, len(b.works))
	for i, w := range b.works {
		pos[w.sum.fn] = i
	}
	g := &sccGraph{n: len(b.works), edges: make([][]int, len(b.works))}
	for i, w := range b.works {
		for _, c := range w.sum.calls {
			if j, ok := pos[c.fn]; ok {
				g.edges[i] = append(g.edges[i], j)
			}
		}
	}

	cg := &callGraph{summaries: b.summaries}
	for _, comp := range g.condense() {
		// An acyclic node's callees are all final by reverse-topological
		// order: a single transfer pass reaches its fixed point, and the
		// iteration cap never applies outside genuine recursion.
		if len(comp) == 1 {
			selfEdge := false
			for _, j := range g.edges[comp[0]] {
				if j == comp[0] {
					selfEdge = true
					break
				}
			}
			if !selfEdge {
				b.transfer(b.works[comp[0]])
				continue
			}
		}
		converged := false
		for pass := 0; pass < sccIterationCap; pass++ {
			changed := false
			for _, i := range comp {
				if b.transfer(b.works[i]) {
					changed = true
				}
			}
			if !changed {
				converged = true
				break
			}
		}
		if converged {
			continue
		}
		// Cap hit: the component's facts are sound (must-facts only flip
		// when proven, may-facts only record real edges) but possibly
		// incomplete. Say so instead of silently under-analyzing.
		for _, i := range comp {
			sum := b.works[i].sum
			sum.capped = true
			p := sum.fd.file.Fset.Position(sum.fd.decl.Pos())
			cg.budget = append(cg.budget, Diagnostic{
				Rule: "lintbudget",
				Message: fmt.Sprintf(
					"summary for %s hit the fixed-point iteration cap (%d passes) in a recursive call cycle; interprocedural facts for it may be incomplete",
					displayName(sum.name), sccIterationCap),
				Pos:  p,
				File: p.Filename,
				Line: p.Line,
				Col:  p.Column,
			})
		}
	}
	return cg
}

// collectCloserTypes finds every module named type that declares a
// Close method.
func collectCloserTypes(m *Module) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	for _, fn := range m.funcList {
		if recv := fn.Signature().Recv(); recv != nil && fn.Name() == "Close" {
			if named := namedOf(recv.Type()); named != nil {
				out[named.Obj()] = true
			}
		}
	}
	return out
}

// directSummary computes the one-body facts of a function and retains
// the analysis context for the propagation phase.
func (b *cgBuilder) directSummary(fn *types.Func, fd *funcDecl) *summaryWork {
	pkg := fd.pkg
	sum := &funcSummary{
		fn:           fn,
		name:         b.mod.funcName(fn),
		fd:           fd,
		closerParams: map[int]bool{},
		paramEscapes: map[int]string{},
		closesParams: map[int]bool{},
	}
	w := &summaryWork{sum: sum, pkg: pkg}

	// Synchronous calls and return statements of this body: what a go
	// statement spawns runs elsewhere, a function literal only if it is
	// invoked, and deferred calls are collected below.
	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.ReturnStmt:
			w.returns = append(w.returns, x)
		case *ast.CallExpr:
			if fn := pkg.moduleCallee(x); fn != nil {
				sum.calls = append(sum.calls, makeSummaryCall(fn, x))
			}
		}
		return true
	})
	// Deferred calls run synchronously on exit paths: resolve `defer
	// helper(...)` and the calls inside `defer func() { ... }()` bodies
	// (excluding nested literals and go statements).
	collectDeferredCalls(fd.decl.Body, pkg, &sum.calls)

	// Parameter facts.
	sig := fn.Signature()
	sum.variadic = sig.Variadic()
	sum.paramCount = sig.Params().Len()
	for p := 0; p < sum.paramCount; p++ {
		param := sig.Params().At(p)
		pname := param.Name()
		if pname == "_" {
			pname = ""
		}
		sum.paramNames = append(sum.paramNames, pname)
		elem := namedOf(pointee(param.Type()))
		if pname == "" || elem == nil {
			continue
		}
		if b.closerTypes[elem.Obj()] {
			sum.closerParams[p] = true
			if paramEscapes(fd.decl.Body, pname) {
				sum.paramEscapes[p] = ""
			}
		}
	}
	if len(sum.closerParams) > 0 {
		w.g = buildCFG(fd.decl.Body)
	}

	// Value origins for the closer analysis.
	w.origins = collectOrigins(fd.decl.Body, pkg)
	sum.closerResults = make([]bool, sig.Results().Len())
	return w
}

// makeSummaryCall records a resolved call site with its positional
// identifier arguments.
func makeSummaryCall(fn *types.Func, call *ast.CallExpr) summaryCall {
	c := summaryCall{fn: fn, ellipsis: call.Ellipsis.IsValid()}
	c.argNames = make([]string, len(call.Args))
	for i, a := range call.Args {
		if id, ok := a.(*ast.Ident); ok {
			c.argNames[i] = id.Name
		}
	}
	return c
}

// collectDeferredCalls resolves `defer helper(...)` statements and the
// direct calls inside deferred function literals; both run on the
// calling goroutine before it returns.
func collectDeferredCalls(body *ast.BlockStmt, pkg *Package, out *[]summaryCall) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					switch mm := m.(type) {
					case *ast.GoStmt, *ast.FuncLit:
						return false
					case *ast.CallExpr:
						if k := pkg.moduleCallee(mm); k != nil {
							*out = append(*out, makeSummaryCall(k, mm))
						}
					}
					return true
				})
			} else if k := pkg.moduleCallee(x.Call); k != nil {
				*out = append(*out, makeSummaryCall(k, x.Call))
			}
			return false
		}
		return true
	})
}

// collectOrigins maps every single-assignment local to the expression
// that produced its value. Names assigned more than once are marked
// multi and never used. Function literal bodies are excluded (their
// locals share names but not values).
func collectOrigins(body *ast.BlockStmt, pkg *Package) map[string]*valueOrigin {
	origins := map[string]*valueOrigin{}
	record := func(name string, o *valueOrigin) {
		if name == "" || name == "_" {
			return
		}
		if prev, seen := origins[name]; seen {
			prev.multi = true
			return
		}
		if o == nil {
			o = &valueOrigin{}
		}
		origins[name] = o
	}
	classify := func(e ast.Expr, resultPos int) *valueOrigin {
		if t := freshPointee(pkg, e); t != nil {
			return &valueOrigin{fresh: t}
		}
		if call, ok := e.(*ast.CallExpr); ok {
			return &valueOrigin{callee: pkg.moduleCallee(call), resultPos: resultPos}
		}
		return &valueOrigin{}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
				// x, err := f(): every LHS ident originates from result i.
				for i, lhs := range st.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						record(id.Name, classify(st.Rhs[0], i))
					}
				}
				return true
			}
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(st.Rhs) {
					continue
				}
				record(id.Name, classify(st.Rhs[i], 0))
			}
		case *ast.GenDecl:
			if st.Tok != token.VAR {
				return true
			}
			for _, s := range st.Specs {
				vs, ok := s.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						record(name.Name, classify(vs.Values[i], 0))
					} else if len(vs.Values) == 1 && len(vs.Names) > 1 {
						record(name.Name, classify(vs.Values[0], i))
					}
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{st.Key, st.Value} {
				if id, ok := e.(*ast.Ident); ok {
					record(id.Name, &valueOrigin{})
				}
			}
		}
		return true
	})
	return origins
}

// freshPointee returns the named type T when e constructs a fresh *T
// in place — new(T) or &T{...} — and nil otherwise.
func freshPointee(pkg *Package, e ast.Expr) *types.TypeName {
	switch x := e.(type) {
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); !ok || id.Name != "new" || len(x.Args) != 1 {
			return nil
		}
	case *ast.UnaryExpr:
		if _, isLit := x.X.(*ast.CompositeLit); !isLit || x.Op != token.AND {
			return nil
		}
	default:
		return nil
	}
	if named := namedOf(pointee(pkg.typeOf(e))); named != nil {
		return named.Obj()
	}
	return nil
}

// viaChain prefixes a callee onto an existing chain for display:
// viaChain("internal/x.f", "") = "x.f"; viaChain("internal/x.f", "x.g")
// = "x.f -> x.g".
func viaChain(name, rest string) string {
	d := displayName(name)
	if rest == "" {
		return d
	}
	return d + " -> " + rest
}

// transfer re-evaluates one function against the current summaries of
// its callees, returning whether anything changed. All updates are
// monotone, so repeated application inside a component reaches a fixed
// point.
func (b *cgBuilder) transfer(w *summaryWork) bool {
	f := w.sum
	changed := false
	for _, c := range f.calls {
		s := b.summaries[c.fn]
		if s == nil || s == f {
			continue
		}
		// A closer parameter of the caller handed to a callee position
		// that escapes the callee escapes the caller too.
		if len(s.paramEscapes) > 0 && callArgsAlign(c, s) {
			poss := make([]int, 0, len(s.paramEscapes))
			for p := range s.paramEscapes {
				poss = append(poss, p)
			}
			sort.Ints(poss)
			for _, p := range poss {
				name := c.argNames[p]
				if name == "" {
					continue
				}
				cp, tracked := f.closerParamPos(name)
				if !tracked {
					continue
				}
				if _, seen := f.paramEscapes[cp]; !seen {
					f.paramEscapes[cp] = viaChain(s.name, s.paramEscapes[p])
					changed = true
				}
			}
		}
	}

	// closesParams: must-close proof over the CFG, re-run because a
	// callee's closesParams growing can complete a path's proof.
	if len(f.closerParams) > 0 {
		poss := make([]int, 0, len(f.closerParams))
		for p := range f.closerParams {
			poss = append(poss, p)
		}
		sort.Ints(poss)
		for _, p := range poss {
			if f.closesParams[p] || f.paramNames[p] == "" {
				continue
			}
			name := f.paramNames[p]
			match := func(n ast.Node) bool { return closesIdentNode(b.summaries, w.pkg, n, name) }
			if nodeCallsMethodOn(f.fd.decl.Body, name, "Close") || b.bodyHasClosingCall(w, name) {
				if w.g.mustExecuteAtExit(match) {
					f.closesParams[p] = true
					changed = true
				}
			}
		}
	}

	// closerResults: does any return statement hand the caller a Closer
	// it owns? Monotone per position.
	if len(f.closerResults) > 0 && len(w.returns) > 0 {
		for _, rs := range w.returns {
			if len(rs.Results) == 0 {
				continue // naked return of named results: degrade to silence
			}
			if len(rs.Results) == 1 && len(f.closerResults) > 1 {
				// return f(): pass-through of a multi-result callee.
				call, ok := rs.Results[0].(*ast.CallExpr)
				if !ok {
					continue
				}
				s := b.summaries[w.pkg.callee(call)]
				if s == nil || len(s.closerResults) != len(f.closerResults) {
					continue
				}
				for i, owned := range s.closerResults {
					if owned && !f.closerResults[i] {
						f.closerResults[i] = true
						changed = true
					}
				}
				continue
			}
			for i, e := range rs.Results {
				if i >= len(f.closerResults) || f.closerResults[i] {
					continue
				}
				if b.ownedCloserExpr(w, e) {
					f.closerResults[i] = true
					changed = true
				}
			}
		}
	}
	return changed
}

// callArgsAlign reports whether positional arg->param mapping is valid
// for this call site: exact arity, no variadic on either end.
func callArgsAlign(c summaryCall, callee *funcSummary) bool {
	return !c.ellipsis && !callee.variadic && len(c.argNames) == callee.paramCount
}

// closerParamPos maps a name to the position of a closer-typed
// parameter of f.
func (f *funcSummary) closerParamPos(name string) (int, bool) {
	for p, n := range f.paramNames {
		if n == name && n != "" && f.closerParams[p] {
			return p, true
		}
	}
	return 0, false
}

// bodyHasClosingCall reports whether the body contains any resolved
// call that closes the named value — a cheap pre-filter before the
// must-execute dataflow runs.
func (b *cgBuilder) bodyHasClosingCall(w *summaryWork, name string) bool {
	found := false
	ast.Inspect(w.sum.fd.decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.GoStmt); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && callClosesIdent(b.summaries, w.pkg, call, name) {
			found = true
			return false
		}
		return true
	})
	return found
}

// closesIdentNode reports whether executing n discharges the obligation
// to close the named value: a (possibly deferred) name.Close() call, or
// a (possibly deferred) resolved call passing name at a parameter
// position the callee provably closes.
func closesIdentNode(summaries map[*types.Func]*funcSummary, pkg *Package, n ast.Node, name string) bool {
	if nodeCallsMethodOn(n, name, "Close") {
		return true
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		switch mm := m.(type) {
		case *ast.GoStmt:
			return false
		case *ast.DeferStmt:
			if callClosesIdent(summaries, pkg, mm.Call, name) {
				found = true
				return false
			}
			if lit, ok := mm.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(k ast.Node) bool {
					if found {
						return false
					}
					if call, ok := k.(*ast.CallExpr); ok && callClosesIdent(summaries, pkg, call, name) {
						found = true
					}
					return !found
				})
			}
			return false
		case *ast.CallExpr:
			if callClosesIdent(summaries, pkg, mm, name) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// callClosesIdent reports whether this call provably closes the named
// value: a resolved callee with an exact positional match whose
// parameter at name's position has closesParams proven.
func callClosesIdent(summaries map[*types.Func]*funcSummary, pkg *Package, call *ast.CallExpr, name string) bool {
	if call.Ellipsis.IsValid() {
		return false
	}
	s := summaries[pkg.callee(call)]
	if s == nil || len(s.closesParams) == 0 || s.variadic || len(call.Args) != s.paramCount {
		return false
	}
	for i, a := range call.Args {
		if id, ok := a.(*ast.Ident); ok && id.Name == name && s.closesParams[i] {
			return true
		}
	}
	return false
}

// ownedCloserExpr reports whether a returned expression hands the
// caller a Closer it becomes responsible for: a fresh construction of a
// Closer type, a call whose (single) result is an owned Closer, or a
// single-assignment local traced to either.
func (b *cgBuilder) ownedCloserExpr(w *summaryWork, e ast.Expr) bool {
	e = ast.Unparen(e)
	if t := freshPointee(w.pkg, e); t != nil {
		return b.closerTypes[t]
	}
	switch x := e.(type) {
	case *ast.CallExpr:
		s := b.summaries[w.pkg.callee(x)]
		return s != nil && len(s.closerResults) == 1 && s.closerResults[0]
	case *ast.Ident:
		o := w.origins[x.Name]
		if o == nil || o.multi {
			return false
		}
		if o.fresh != nil {
			return b.closerTypes[o.fresh]
		}
		s := b.summaries[o.callee]
		return s != nil && o.resultPos < len(s.closerResults) && s.closerResults[o.resultPos]
	}
	return false
}

// nodeCallsMethodOn reports whether n contains a call recv.method(...)
// that runs when control passes through n: direct statement-level
// calls, and deferred calls (defer recv.method() or a deferred literal
// containing one). Code inside go statements never counts; code inside
// a non-deferred function literal only runs if the literal is invoked,
// which is over-approximated as counting — the consumers use this
// matcher where over-matching silences a finding, never creates one.
func nodeCallsMethodOn(n ast.Node, recv, method string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		switch mm := m.(type) {
		case *ast.GoStmt:
			return false
		case *ast.DeferStmt:
			if r, ok := methodCall(mm.Call, method); ok && r == recv {
				found = true
				return false
			}
			if lit, ok := mm.Call.Fun.(*ast.FuncLit); ok && nodeCallsMethodOn(lit.Body, recv, method) {
				found = true
			}
			return false
		case *ast.CallExpr:
			if r, ok := methodCall(mm, method); ok && r == recv {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// paramEscapes is the summary-grade escape check for a closer-typed
// parameter: stored, returned, sent, put in a composite literal or
// handed to a goroutine, without alias tracking (closecheck only needs
// "can this helper keep the value", and a miss degrades to silence
// there).
func paramEscapes(body *ast.BlockStmt, name string) bool {
	isParam := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == name
	}
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				if !isParam(rhs) || i >= len(st.Lhs) {
					continue
				}
				if _, isIdent := st.Lhs[i].(*ast.Ident); !isIdent {
					escapes = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range st.Results {
				if isParam(res) {
					escapes = true
				}
			}
		case *ast.SendStmt:
			if isParam(st.Value) {
				escapes = true
			}
		case *ast.CompositeLit:
			for _, el := range st.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if isParam(v) {
					escapes = true
				}
			}
		case *ast.GoStmt:
			for _, arg := range st.Call.Args {
				if isParam(arg) {
					escapes = true
				}
			}
			if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && id.Name == name {
						escapes = true
					}
					return !escapes
				})
			}
		}
		return true
	})
	return escapes
}
