package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// hotDirs are the pixel-path packages: per-pixel and per-block loops
// here dominate encoder throughput, and a stray allocation inside them
// turns a memory-bandwidth-bound kernel into a GC benchmark (paper §2:
// the VCU exists because these loops are the cost of video serving).
var hotDirs = []string{
	"internal/codec",
	"internal/video",
}

// hotKernelDirs are the innermost pixel-kernel packages (SAD,
// interpolation, intra prediction). These run per block inside the
// per-superblock RD loop, so even a once-per-call allocation — not just
// one inside a loop — multiplies into millions per frame. Kernels here
// must thread a caller-owned scratch buffer (motion.Scratch,
// predict.NeighborBuf) instead of allocating.
var hotKernelDirs = []string{
	"internal/codec/motion",
	"internal/codec/predict",
}

// setupPrefixes name functions that run once per stream/frame setup and
// are allowed to allocate freely.
var setupPrefixes = []string{
	"New", "Init", "Setup", "Alloc", "Build", "Make", "Load", "Parse",
	"init", "setup", "alloc", "build", "make", "load", "parse",
}

func init() {
	Register(&Analyzer{
		Name: "hotalloc",
		Doc: "flags allocations in loops in the pixel-path packages " +
			"(internal/codec/..., internal/video): make/new and string " +
			"concatenation in any loop, append in nested loops; setup " +
			"functions (New*/Init*/Setup*/...) are exempt. In the " +
			"pixel-kernel packages (internal/codec/motion, " +
			"internal/codec/predict) make/new is flagged anywhere in a " +
			"non-setup function — kernels must use caller-owned scratch",
		Run: runHotAlloc,
	})
}

func runHotAlloc(pass *Pass) {
	if !dirMatchesAny(pass.Pkg.Dir, hotDirs) {
		return
	}
	kernel := dirMatchesAny(pass.Pkg.Dir, hotKernelDirs)
	for _, f := range pass.Pkg.Files {
		if f.IsTest {
			continue
		}
		funcBodies(f.AST, func(name string, body *ast.BlockStmt) {
			if isSetupFunc(name) {
				return
			}
			checkAllocs(pass, body, 0, kernel)
		})
	}
}

func isSetupFunc(name string) bool {
	for _, p := range setupPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// checkAllocs walks statements tracking loop nesting depth. Function
// literals reset the walk (they are visited separately by funcBodies).
// With kernel set, make/new is flagged at any depth, not just in loops:
// pixel kernels are themselves the body of a hot loop in their callers.
func checkAllocs(pass *Pass, n ast.Node, depth int, kernel bool) {
	// reported tracks RHS expressions already covered by a `+=` finding
	// so the inner BinaryExpr does not produce a second diagnostic.
	reported := map[ast.Node]bool{}
	ast.Inspect(n, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			// Loop headers (init/cond/post) run once or are cheap
			// comparisons; only the body is treated as hot.
			if x.Body != nil {
				checkAllocs(pass, x.Body, depth+1, kernel)
			}
			return false
		case *ast.RangeStmt:
			if x.Body != nil {
				checkAllocs(pass, x.Body, depth+1, kernel)
			}
			return false
		case *ast.CallExpr:
			if depth == 0 && !kernel {
				return true
			}
			switch fn := x.Fun.(type) {
			case *ast.Ident:
				switch fn.Name {
				case "make":
					if depth == 0 {
						pass.Reportf(x.Pos(), "make() in a pixel-kernel function; thread a caller-owned scratch buffer instead")
					} else {
						pass.Reportf(x.Pos(), "make() inside a hot loop; hoist the buffer out of the loop or reuse a scratch slice")
					}
				case "new":
					if depth == 0 {
						pass.Reportf(x.Pos(), "new() in a pixel-kernel function; thread a caller-owned scratch buffer instead")
					} else {
						pass.Reportf(x.Pos(), "new() inside a hot loop; hoist the allocation out of the loop")
					}
				case "append":
					if depth >= 2 {
						pass.Reportf(x.Pos(), "append() inside a nested hot loop; pre-size the slice before the pixel loop")
					}
				}
			case *ast.SelectorExpr:
				if ipath, name, _ := pass.Pkg.pkgFunc(x); depth >= 1 && ipath == "fmt" && strings.HasPrefix(name, "Sprint") {
					pass.Reportf(x.Pos(), "fmt.%s allocates inside a hot loop; format outside the loop", name)
				}
			}
		case *ast.BinaryExpr:
			if depth >= 1 && x.Op == token.ADD && !reported[x] && pass.Pkg.isString(x) {
				pass.Reportf(x.Pos(), "string concatenation inside a hot loop allocates; use a strings.Builder outside the loop")
				return false
			}
		case *ast.AssignStmt:
			if depth >= 1 && x.Tok == token.ADD_ASSIGN && len(x.Rhs) == 1 && pass.Pkg.isString(x.Lhs[0]) {
				pass.Reportf(x.Pos(), "string += inside a hot loop allocates; use a strings.Builder outside the loop")
				reported[x.Rhs[0]] = true
			}
		}
		return true
	})
}
