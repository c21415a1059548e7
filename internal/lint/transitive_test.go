package lint

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// TestSCCCondense pins the condensation contract: components come out
// callees-first (reverse topological order), cycles collapse into one
// component, and the output is deterministic for a fixed edge order.
func TestSCCCondense(t *testing.T) {
	// 0 -> 1 -> 2 (a chain): components must appear leaf-first.
	chain := &sccGraph{n: 3, edges: [][]int{{1}, {2}, nil}}
	got := chain.condense()
	want := [][]int{{2}, {1}, {0}}
	if len(got) != len(want) {
		t.Fatalf("chain: got %v components, want %v", got, want)
	}
	for i := range want {
		if len(got[i]) != 1 || got[i][0] != want[i][0] {
			t.Fatalf("chain: component %d = %v, want %v", i, got[i], want[i])
		}
	}

	// 0 -> 1 <-> 2, 1 -> 3: the 1-2 cycle is one component, emitted
	// after its callee 3 and before its caller 0.
	cyc := &sccGraph{n: 4, edges: [][]int{{1}, {2, 3}, {1}, nil}}
	comps := cyc.condense()
	order := map[int]int{} // node -> component position
	for ci, comp := range comps {
		for _, v := range comp {
			order[v] = ci
		}
	}
	if order[1] != order[2] {
		t.Errorf("nodes 1 and 2 form a cycle; got separate components %v", comps)
	}
	if !(order[3] < order[1] && order[1] < order[0]) {
		t.Errorf("want callees first (3 before {1,2} before 0), got %v", comps)
	}

	// A self-loop is its own (recursive) component.
	self := &sccGraph{n: 1, edges: [][]int{{0}}}
	if comps := self.condense(); len(comps) != 1 || len(comps[0]) != 1 {
		t.Errorf("self-loop: got %v", comps)
	}
}

// TestTransitiveSummaries pins the facts that only the fixed-point
// engine can compute: every one of these sits at least two resolved
// calls from the operation that produces it, so a one-level summary
// table sees nothing.
func TestTransitiveSummaries(t *testing.T) {
	mod := loadTestModule(t)
	cg := mod.callGraph()

	// closer.openTraced returns a fresh Session only by passing through
	// NewSession; closeHelper provably closes its parameter.
	open := cg.summaries[funcNamed(mod, "internal/vcu/closer.openTraced")]
	if open == nil {
		t.Fatal("no summary for closer.openTraced")
	}
	if len(open.closerResults) != 2 || !open.closerResults[0] || open.closerResults[1] {
		t.Errorf("openTraced closerResults = %v, want [true false]", open.closerResults)
	}
	helper := cg.summaries[funcNamed(mod, "internal/vcu/closer.closeHelper")]
	if helper == nil {
		t.Fatal("no summary for closer.closeHelper")
	}
	if !helper.closesParams[0] {
		t.Errorf("closeHelper must provably close its parameter, got %v", helper.closesParams)
	}
}

// TestRecursionFixedPoint verifies convergence inside recursive
// components: self-recursion settles without a cap hit, and in a mutual
// pair the half that never stores its closer parameter learns from the
// other half that it escapes, with the chain.
func TestRecursionFixedPoint(t *testing.T) {
	mod := loadTestModule(t)
	cg := mod.callGraph()

	const conn = 1 // position of the *Conn parameter
	self := cg.summaries[funcNamed(mod, "internal/vcu/recur.selfStash")]
	if self == nil {
		t.Fatal("no summary for recur.selfStash")
	}
	if self.capped {
		t.Error("selfStash's facts are small and monotone: must converge under the cap")
	}
	if via, ok := self.paramEscapes[conn]; !ok || via != "" {
		t.Errorf("selfStash stores its Conn in its own body, got %v", self.paramEscapes)
	}

	for name, want := range map[string]string{"mutualA": "recur.mutualB", "mutualB": ""} {
		sum := cg.summaries[funcNamed(mod, "internal/vcu/recur."+name)]
		if sum == nil {
			t.Fatalf("no summary for recur.%s", name)
		}
		if sum.capped {
			t.Errorf("%s must converge under the default cap", name)
		}
		if via, ok := sum.paramEscapes[conn]; !ok || via != want {
			t.Errorf("%s: its Conn must escape via %q, got %v", name, want, sum.paramEscapes)
		}
	}
	if len(cg.budget) != 0 {
		t.Errorf("fixture tree must build without cap hits, got %v", cg.budget)
	}
}

// TestIterationCapBudget lowers the cap below what the mutual pair
// needs and checks the failure is reported, not swallowed: the capped
// flag is set and a lintbudget diagnostic names each function.
func TestIterationCapBudget(t *testing.T) {
	saved := sccIterationCap
	sccIterationCap = 1
	defer func() { sccIterationCap = saved }()

	mod := loadTestModule(t)
	cg := mod.callGraph()
	for _, name := range []string{"mutualA", "mutualB"} {
		sum := cg.summaries[funcNamed(mod, "internal/vcu/recur."+name)]
		if sum == nil {
			t.Fatalf("no summary for recur.%s", name)
		}
		if !sum.capped {
			t.Errorf("%s must be marked capped at sccIterationCap=1", name)
		}
	}
	found := 0
	for _, d := range cg.budget {
		if d.Rule != "lintbudget" {
			t.Errorf("budget diagnostic has rule %q, want lintbudget", d.Rule)
		}
		if strings.Contains(d.Message, "recur.mutual") {
			found++
		}
		if d.File == "" || d.Line == 0 {
			t.Errorf("budget diagnostic missing position: %+v", d)
		}
	}
	if found != 2 {
		t.Errorf("want lintbudget diagnostics for both mutual functions, got %d in %v", found, cg.budget)
	}
}

// TestDriverDeterminism runs the full suite over the fixture tree at 1
// and 8 workers and requires byte-for-byte identical findings: the
// parallel fan-out must not be observable in the output.
func TestDriverDeterminism(t *testing.T) {
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	var out [2][]byte
	for i, workers := range []int{1, 8} {
		diags, runErr := Run(Config{Root: root, Workers: workers})
		if runErr != nil {
			t.Fatal(runErr)
		}
		buf, jsonErr := json.Marshal(diags)
		if jsonErr != nil {
			t.Fatal(jsonErr)
		}
		out[i] = buf
	}
	if string(out[0]) != string(out[1]) {
		t.Errorf("findings differ between 1 and 8 workers:\n1: %s\n8: %s", out[0], out[1])
	}
}
