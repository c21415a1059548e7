package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// determinismDirs are the virtual-clock / seeded-RNG packages: code
// here must be bit-reproducible run to run, because RD curves, BD-rate
// deltas, and fleet-simulation results are verified against golden
// numbers (paper §4: deterministic output is what makes encoder
// verification tractable at warehouse scale).
var determinismDirs = []string{
	"internal/sim",
	"internal/fleetsim",
	"internal/cluster",
	"internal/vbench",
	"internal/workload",
}

// bannedTimeFuncs are wall-clock entry points; simulated time comes
// from the injected virtual clock instead.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// bannedRandFuncs are the global (package-level) math/rand and
// math/rand/v2 functions, whose shared state is seeded randomly since
// Go 1.20 and therefore breaks reproducibility. rand.New with an
// explicit seeded source is fine.
var bannedRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 spellings
	"N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64N": true, "UintN": true, "Uint": true, "Uint32N": true, "Uint64N": true,
}

func init() {
	Register(&Analyzer{
		Name: "determinism",
		Doc: "forbids wall-clock reads (time.Now/Since/...), global math/rand, and " +
			"order-dependent map iteration in the simulation packages " +
			"(internal/sim, internal/fleetsim, internal/cluster, internal/vbench, " +
			"internal/workload)",
		Run: runDeterminism,
	})
}

func runDeterminism(pass *Pass) {
	if !dirMatchesAny(pass.Pkg.Dir, determinismDirs) {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				ipath, name, ok := pass.Pkg.pkgFunc(node)
				switch {
				case !ok:
				case ipath == "time" && bannedTimeFuncs[name]:
					pass.Reportf(node.Pos(),
						"wall-clock call time.%s in a deterministic package; use the injected virtual clock", name)
				case ipath == "math/rand" && bannedRandFuncs[name]:
					pass.Reportf(node.Pos(),
						"global math/rand call rand.%s in a deterministic package; use an explicitly seeded rand.New(rand.NewSource(seed))", name)
				case ipath == "math/rand/v2" && bannedRandFuncs[name]:
					pass.Reportf(node.Pos(),
						"global math/rand/v2 call rand.%s in a deterministic package; use an explicitly seeded generator", name)
				}
			case *ast.RangeStmt:
				checkMapRangeOrder(pass, node)
			}
			return true
		})
	}
}

// checkMapRangeOrder flags `for k := range m` over a map when the loop
// body leaks iteration order into an ordered sink: a slice append, a
// string concatenation, a floating-point accumulation (float addition
// is not associative, so the low bits — and after division, the event
// timeline — drift run to run), or a nested loop with an early exit
// (first-iterated key wins a shared resource). These are exactly the
// patterns that turn Go's randomised map order into run-to-run result
// drift in the simulators.
func checkMapRangeOrder(pass *Pass, rng *ast.RangeStmt) {
	if _, isMap := under[*types.Map](pass.Pkg.typeOf(rng.X)); !isMap {
		return
	}
	if sink := orderSink(pass.Pkg, rng.Body); sink != "" {
		pass.Reportf(rng.Pos(),
			"map iteration order leaks into an ordered result (%s in loop body); iterate sorted keys instead",
			sink)
	}
}

// orderSink looks for order-sensitive accumulation in a loop body and
// names the first kind it finds, "" for none.
func orderSink(pkg *Package, body *ast.BlockStmt) string {
	found := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch node := n.(type) {
		case *ast.CallExpr:
			if id, ok := node.Fun.(*ast.Ident); ok && id.Name == "append" {
				found = "append"
			}
		case *ast.AssignStmt:
			if node.Tok == token.ADD_ASSIGN || node.Tok == token.SUB_ASSIGN {
				switch info := basicInfo(pkg.typeOf(node.Lhs[0])); {
				case info&types.IsString != 0:
					found = "string +="
				case info&types.IsFloat != 0:
					found = "float accumulation"
				}
			}
		case *ast.ForStmt:
			if loopHasBreak(node.Body) {
				found = "nested loop with break"
			}
		case *ast.RangeStmt:
			if loopHasBreak(node.Body) {
				found = "nested loop with break"
			}
		}
		return found == ""
	})
	return found
}

// loopHasBreak reports whether a loop body contains a break at its own
// level (the first-come-first-served pattern: iterating a shared pool
// until a budget runs out, where map order decides who wins).
func loopHasBreak(body *ast.BlockStmt) bool {
	has := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.BranchStmt:
			if n.(*ast.BranchStmt).Tok == token.BREAK {
				has = true
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
			return false // break would bind to the inner statement
		}
		return !has
	})
	return has
}
