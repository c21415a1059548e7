package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// swarDirs are the packages doing uint64 lane arithmetic (SWAR pixel
// kernels) and sub-word bit packing, where a wrong shift count or a
// mask that does not respect the lane layout corrupts pixels silently
// instead of crashing.
var swarDirs = []string{
	"internal/codec/motion",
	"internal/codec/filter",
	"internal/bits",
}

func init() {
	Register(&Analyzer{
		Name: "swarwidth",
		Doc: "in internal/codec/motion and internal/bits, flags " +
			"constant shifts >= the operand's bit width (always zero or " +
			"implementation-defined intent), 64-bit masks that are not " +
			"byte/16/32-bit lane-periodic, and integer conversions that " +
			"narrow or reinterpret an accumulator variable",
		Run: runSwarWidth,
	})
}

func runSwarWidth(pass *Pass) {
	if !dirMatchesAny(pass.Pkg.Dir, swarDirs) {
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
			checkSwarWidth(pass, fd)
		}
	}
}

// lanePeriodic reports whether a 64-bit word repeats with a byte,
// 16-bit or 32-bit period — the lane layouts the SWAR kernels use.
func lanePeriodic(v uint64) bool {
	b := v & 0xff
	if v == b*0x0101010101010101 {
		return true
	}
	h := v & 0xffff
	if v == h*0x0001000100010001 {
		return true
	}
	return v == (v&0xffffffff)*0x0000000100000001
}

// intWidth reports the bit width and signedness of a typed integer
// type, named types included. ok is false for everything else.
func intWidth(t types.Type) (width int, unsigned, ok bool) {
	info := basicInfo(t)
	if info&types.IsInteger == 0 || info&types.IsUntyped != 0 {
		return 0, false, false
	}
	return int(sizes.Sizeof(t)) * 8, info&types.IsUnsigned != 0, true
}

// isWideHex reports whether e spells a full 64-bit word: a literal of
// exactly 16 hex digits.
func isWideHex(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind != token.INT || len(lit.Value) < 2 {
		return false
	}
	prefix, digits := strings.ToLower(lit.Value[:2]), strings.ReplaceAll(lit.Value[2:], "_", "")
	return prefix == "0x" && len(digits) == 16
}

// wideHexConst resolves e to a 64-bit lane-mask constant: either a
// 16-hex-digit literal or a reference to a constant declared as one.
func wideHexConst(pkg *Package, e ast.Expr) (uint64, bool) {
	wide := isWideHex(e)
	var id *ast.Ident
	switch x := e.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	}
	if c, ok := pkg.Info.Uses[id].(*types.Const); ok {
		wide = isWideHex(pkg.mod.constInit(c))
	}
	if !wide {
		return 0, false
	}
	return constant.Uint64Val(constant.ToInt(pkg.Info.Types[e].Value))
}

// constInit finds the initializer expression a module constant was
// declared with; nil when it has none of its own (iota repetition) or
// is declared outside the module.
func (m *Module) constInit(c *types.Const) ast.Expr {
	pkg := m.byTypes[c.Pkg()]
	if pkg == nil {
		return nil
	}
	var init ast.Expr
	for _, f := range pkg.Files {
		if c.Pos() < f.AST.Pos() || c.Pos() >= f.AST.End() {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			if vs, ok := n.(*ast.ValueSpec); ok {
				for i, name := range vs.Names {
					if name.Pos() == c.Pos() && i < len(vs.Values) {
						init = vs.Values[i]
					}
				}
			}
			return init == nil
		})
	}
	return init
}

func checkSwarWidth(pass *Pass, fd *ast.FuncDecl) {
	pkg := pass.Pkg

	// accumulated: bare locals built up with compound assignment —
	// the lane accumulators whose narrowing loses carries.
	accumulated := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch st.Tok {
		case token.ADD_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN, token.SHL_ASSIGN:
			for _, lhs := range st.Lhs {
				if id, isIdent := lhs.(*ast.Ident); isIdent {
					accumulated[id.Name] = true
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BinaryExpr:
			switch x.Op {
			case token.SHL, token.SHR:
				count, ok := pkg.constInt(x.Y)
				if !ok {
					return true
				}
				w, _, okW := intWidth(pkg.typeOf(x.X))
				if okW && count >= int64(w) {
					pass.Reportf(x.Pos(),
						"shift count %d >= bit width %d of %s; the result is always zero",
						count, w, exprString(x.X))
				}
			case token.AND, token.OR, token.XOR, token.AND_NOT:
				for _, op := range []ast.Expr{x.X, x.Y} {
					if v, ok := wideHexConst(pkg, op); ok && !lanePeriodic(v) {
						pass.Reportf(op.Pos(),
							"64-bit mask %#016x is not byte/16/32-bit lane-periodic; it does not cover an even lane layout",
							v)
					}
				}
			}
		case *ast.CallExpr:
			// Conversion of a bare accumulator: T(acc).
			if len(x.Args) != 1 || !pkg.Info.Types[x.Fun].IsType() {
				return true
			}
			arg, ok := x.Args[0].(*ast.Ident)
			if !ok || !accumulated[arg.Name] {
				return true
			}
			wT, uT, okT := intWidth(pkg.typeOf(x.Fun))
			wX, uX, okX := intWidth(pkg.typeOf(arg))
			if !okT || !okX {
				return true
			}
			if wT < wX {
				pass.Reportf(x.Pos(),
					"conversion %s truncates accumulator %s from %d to %d bits; fold lanes before narrowing",
					convName(x.Fun), arg.Name, wX, wT)
			} else if wT == wX && uT != uX {
				pass.Reportf(x.Pos(),
					"conversion %s reinterprets the sign of accumulator %s; a high lane bit becomes a sign bit",
					convName(x.Fun), arg.Name)
			}
		}
		return true
	})
}

// convName renders a conversion target for messages.
func convName(e ast.Expr) string {
	if s := exprString(e); s != "" {
		return s
	}
	return fmt.Sprintf("%T", e)
}
