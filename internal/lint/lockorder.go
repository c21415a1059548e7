package lint

import (
	"fmt"
	"go/token"
	"sort"
)

func init() {
	Register(&Analyzer{
		Name: "lockorder",
		Doc: "detects inconsistent mutex acquisition order across the cluster/" +
			"sched/vcu packages — two lock classes taken in both orders on " +
			"some pair of paths is the classic deadlock precondition; " +
			"acquisitions are chased transitively through every chain of " +
			"resolved module calls via the fixed-point summaries",
		Run: runLockOrder,
	})
}

// lockOrderDirs scope the rule to the concurrency-bearing control-plane
// packages; fixtures extend the set through internal/vcu.
var lockOrderDirs = []string{"internal/cluster", "internal/sched", "internal/vcu"}

// lockOrderFinding is one cached diagnostic of the module-wide
// analysis, tagged with the package that owns its position so each Pass
// reports only its own.
type lockOrderFinding struct {
	pkg *Package
	pos token.Pos
	msg string
}

func runLockOrder(pass *Pass) {
	if !dirMatchesAny(pass.Pkg.Dir, lockOrderDirs) {
		return
	}
	for _, fi := range pass.Mod.lockOrderFindings() {
		if fi.pkg == pass.Pkg {
			pass.Reportf(fi.pos, "%s", fi.msg)
		}
	}
}

// lockOrderSite is one place an acquisition edge was observed.
type lockOrderSite struct {
	pkg *Package
	f   *File
	pos token.Pos
	// via is the display call chain for edges discovered through a
	// call's transitive summary ("sched.helper -> sched.lockBoth"); ""
	// for direct acquisitions.
	via string
}

// lockOrderFindings runs the module-wide acquisition-order analysis
// once per Module. For every function in scope it walks the lock paths
// collecting directed class edges "A held when B acquired" — directly,
// and through resolved calls via the transitive call-graph summaries
// (any depth of resolved callees, with the discovery chain shown) —
// then reports every site of an edge that participates in a cycle.
// Functions whose exploration aborts contribute no edges (silence);
// unknown lock classes and unresolved callees likewise contribute
// nothing.
func (m *Module) lockOrderFindings() []lockOrderFinding {
	m.lockOrderOnce.Do(func() {
		m.lockOrder = m.computeLockOrderFindings()
	})
	return m.lockOrder
}

func (m *Module) computeLockOrderFindings() []lockOrderFinding {
	cg := m.callGraph()

	type edgeKey struct{ from, to string }
	edges := map[edgeKey][]lockOrderSite{}
	seenSite := map[string]bool{}
	addSite := func(from, to string, s lockOrderSite) {
		k := from + "\x00" + to + "\x00" + s.f.Path + "\x00" + fmt.Sprint(int(s.pos))
		if seenSite[k] {
			return
		}
		seenSite[k] = true
		e := edgeKey{from, to}
		edges[e] = append(edges[e], s)
	}

	for _, fn := range m.funcList {
		fd := m.funcs[fn]
		if fd.decl.Body == nil || fd.file.IsTest || !dirMatchesAny(fd.pkg.Dir, lockOrderDirs) {
			continue
		}
		for _, body := range declBodies(fd.decl) {
			g := buildCFG(body)
			ops := collectLockOps(g, fd.pkg)
			hasAcquire := false
			for _, blockOps := range ops {
				for _, op := range blockOps {
					if op.kind == opAcquire {
						hasAcquire = true
					}
				}
			}
			if !hasAcquire {
				continue // edges need a held lock
			}
			var pending []func()
			aborted := walkLockPaths(g, ops, lockEvents{
				onAcquire: func(held []heldLock, op lockOp) {
					if op.class == "" {
						return
					}
					for _, h := range held {
						if h.class == "" || h.class == op.class {
							continue
						}
						from, to, s := h.class, op.class, lockOrderSite{pkg: fd.pkg, f: fd.file, pos: op.pos}
						pending = append(pending, func() { addSite(from, to, s) })
					}
				},
				onCall: func(held []heldLock, op lockOp) {
					sum := cg.summaries[op.callee]
					if sum == nil || len(sum.acquires) == 0 {
						return
					}
					classes := make([]string, 0, len(sum.acquires))
					for cl := range sum.acquires {
						classes = append(classes, cl)
					}
					sort.Strings(classes)
					for _, to := range classes {
						for _, h := range held {
							if h.class == "" || h.class == to {
								continue
							}
							from := h.class
							s := lockOrderSite{pkg: fd.pkg, f: fd.file, pos: op.pos, via: viaChain(sum.name, sum.acquiresVia[to])}
							toCl := to
							pending = append(pending, func() { addSite(from, toCl, s) })
						}
					}
				},
			})
			if aborted {
				continue
			}
			for _, flush := range pending {
				flush()
			}
		}
	}

	// A pair of classes is a deadlock precondition when the edge graph
	// lets each reach the other: report every site of every edge inside
	// such a cycle.
	adj := map[string]map[string]bool{}
	for e := range edges {
		if adj[e.from] == nil {
			adj[e.from] = map[string]bool{}
		}
		adj[e.from][e.to] = true
	}
	reaches := func(from, to string) bool {
		seen := map[string]bool{from: true}
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for next := range adj[n] {
				if next == to {
					return true
				}
				if !seen[next] {
					seen[next] = true
					stack = append(stack, next)
				}
			}
		}
		return false
	}

	keys := make([]edgeKey, 0, len(edges))
	for e := range edges {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	var findings []lockOrderFinding
	for _, e := range keys {
		if !reaches(e.to, e.from) {
			continue // consistent order: A before B everywhere
		}
		sites := edges[e]
		sort.Slice(sites, func(i, j int) bool {
			if sites[i].f.Path != sites[j].f.Path {
				return sites[i].f.Path < sites[j].f.Path
			}
			return sites[i].pos < sites[j].pos
		})
		// The counterexample shown is the first site of the reverse
		// edge; in longer cycles (A->B->C->A) the classes are listed.
		counter := ""
		if rev := edges[edgeKey{e.to, e.from}]; len(rev) > 0 {
			r := rev[0]
			for _, s := range rev {
				if s.f.Path < r.f.Path || (s.f.Path == r.f.Path && s.pos < r.pos) {
					r = s
				}
			}
			p := r.f.Fset.Position(r.pos)
			counter = fmt.Sprintf("the opposite order is taken at %s:%d", r.f.Path, p.Line)
		} else {
			counter = fmt.Sprintf("part of an acquisition cycle between %s and %s",
				displayName(e.from), displayName(e.to))
		}
		for _, s := range sites {
			var msg string
			if s.via == "" {
				msg = fmt.Sprintf("lock order inversion: %s acquired while %s is held, but %s (deadlock risk)",
					displayName(e.to), displayName(e.from), counter)
			} else {
				msg = fmt.Sprintf("lock order inversion: call to %s acquires %s while %s is held, but %s (deadlock risk)",
					s.via, displayName(e.to), displayName(e.from), counter)
			}
			findings = append(findings, lockOrderFinding{pkg: s.pkg, pos: s.pos, msg: msg})
		}
	}
	return findings
}
