package lint

import (
	"go/types"
	"path/filepath"
	"testing"
)

// loadTestModule loads and type-checks the fixture tree.
func loadTestModule(t *testing.T) *Module {
	t.Helper()
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	mod, _, err := loadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// funcNamed finds the function-table key that Module.funcName spells as
// name ("dir.Func", "dir.Recv.Method"); nil, which has no summary, when
// there is none.
func funcNamed(m *Module, name string) *types.Func {
	for _, fn := range m.funcList {
		if m.funcName(fn) == name {
			return fn
		}
	}
	return nil
}

// TestCallGraphSummaries pins the one-level facts the CFG-layer rules
// consume: WaitGroup parameter behavior and direct lock acquisitions.
func TestCallGraphSummaries(t *testing.T) {
	mod := loadTestModule(t)
	cg := mod.callGraph()

	worker := cg.summaries[funcNamed(mod, "internal/vcu/fanout.worker")]
	if worker == nil {
		t.Fatal("no summary for fanout.worker")
	}
	wf, ok := worker.wgParams[0]
	if !ok {
		t.Fatal("worker's *sync.WaitGroup parameter not detected")
	}
	if !wf.doneEver || !wf.doneAlways || wf.addsInside {
		t.Errorf("worker facts wrong: %+v", wf)
	}

	leaky := cg.summaries[funcNamed(mod, "internal/vcu/fanout.leakyWorker")]
	if leaky == nil {
		t.Fatal("no summary for fanout.leakyWorker")
	}
	lf, ok := leaky.wgParams[0]
	if !ok {
		t.Fatal("leakyWorker's *sync.WaitGroup parameter not detected")
	}
	if !lf.doneEver || lf.doneAlways {
		t.Errorf("leakyWorker misses Done on the early-return path: %+v", lf)
	}

	straight := cg.summaries[funcNamed(mod, "internal/sched.counter.goodStraightLine")]
	if straight == nil {
		t.Fatal("no summary for sched.counter.goodStraightLine")
	}
	if _, ok := straight.acquires["internal/sched.counter.mu"]; !ok {
		t.Errorf("goodStraightLine must be summarized as acquiring counter.mu, got %v", straight.acquires)
	}
}

// TestCallGraphIsLazyAndCached verifies the build happens once per
// Module.
func TestCallGraphIsLazyAndCached(t *testing.T) {
	mod := loadTestModule(t)
	if mod.cg != nil {
		t.Fatal("call graph must not be built before first use")
	}
	cg := mod.callGraph()
	if cg == nil || mod.callGraph() != cg {
		t.Fatal("call graph must be cached on the module")
	}
}
