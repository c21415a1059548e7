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
