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
// consume: blocking callees, WaitGroup parameter behavior, direct lock
// acquisitions, and scratch-parameter escapes.
func TestCallGraphSummaries(t *testing.T) {
	mod := loadTestModule(t)
	cg := mod.callGraph()

	flush := cg.summaries[funcNamed(mod, "internal/vcu/held.mailbox.flush")]
	if flush == nil {
		t.Fatal("no summary for held.mailbox.flush")
	}
	if !flush.blocking {
		t.Error("flush ranges over a channel: summary must be blocking")
	}

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

	reset := cg.summaries[funcNamed(mod, "internal/vcu/ordering.Device.reset")]
	if reset == nil {
		t.Fatal("no summary for ordering.Device.reset")
	}
	if _, ok := reset.acquires["internal/vcu/ordering.Device.mu"]; !ok {
		t.Errorf("reset must be summarized as acquiring Device.mu, got %v", reset.acquires)
	}

	escapes := cg.summaries[funcNamed(mod, "internal/enc.returnScratch")]
	if escapes == nil {
		t.Fatal("no summary for enc.returnScratch")
	}
	if !escapes.scratchEscapes {
		t.Error("returnScratch returns its scratch parameter: must escape")
	}
	clean := cg.summaries[funcNamed(mod, "internal/enc.fieldUse")]
	if clean == nil {
		t.Fatal("no summary for enc.fieldUse")
	}
	if clean.scratchEscapes {
		t.Error("fieldUse only reads its scratch parameter: must not escape")
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
