package lint

import (
	"go/ast"
	"go/types"
)

// bigCopyThreshold is the value size in bytes above which passing or
// ranging by value is flagged. 256 bytes is several cache lines per
// call — frames, planes, and lookahead state cross it easily.
const bigCopyThreshold = 256

// bigCopyDirs are the pixel-path packages: per-pixel and per-block
// loops here dominate encoder throughput, so a copy made per call or
// per iteration is paid millions of times a frame (paper §2: the VCU
// exists because these loops are the cost of video serving).
var bigCopyDirs = []string{
	"internal/codec",
	"internal/video",
}

func init() {
	Register(&Analyzer{
		Name: "bigcopy",
		Doc: "flags large structs/arrays (>256 bytes) passed, received, " +
			"or ranged by value in the hot packages (internal/codec/..., " +
			"internal/video); pass pointers instead",
		Run: runBigCopy,
	})
}

func runBigCopy(pass *Pass) {
	if !dirMatchesAny(pass.Pkg.Dir, bigCopyDirs) {
		return
	}
	for _, f := range pass.Pkg.Files {
		if f.IsTest {
			continue
		}
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			reportBigValueFields(pass, fd.Recv, "receiver")
			reportBigValueFields(pass, fd.Type.Params, "parameter")
			if fd.Body != nil {
				checkBigRange(pass, fd.Body)
			}
		}
	}
}

// reportBigValueFields flags each parameter or receiver whose type is a
// by-value struct/array above the threshold.
func reportBigValueFields(pass *Pass, fields *ast.FieldList, kind string) {
	if fields == nil {
		return
	}
	for _, field := range fields.List {
		if size, name, ok := bigValue(pass.Pkg, field.Type); ok {
			pass.Reportf(field.Pos(), "%s %s copies ~%d bytes per call; pass *%s", kind, name, size, name)
		}
	}
}

// bigValue reports the size and display name of e's type when copying
// a value of it moves more than the threshold: structs and arrays,
// sized as the compiler lays them out (alignment and padding included).
// Pointers, slices, maps and interfaces are reference-sized and never
// qualify; neither does a type the checker could not resolve.
func bigValue(pkg *Package, e ast.Expr) (size int64, name string, ok bool) {
	t := pkg.typeOf(e)
	if t == nil {
		return 0, "", false
	}
	local := func(p *types.Package) string {
		if p == pkg.Types {
			return ""
		}
		return p.Name()
	}
	name = types.TypeString(t, local)
	switch u := t.Underlying().(type) {
	case *types.Struct:
	case *types.Array:
		if t == u {
			name = types.TypeString(u.Elem(), local) + " array"
		}
	default:
		return 0, "", false
	}
	size = sizes.Sizeof(t)
	return size, name, size > bigCopyThreshold
}

// checkBigRange flags `for _, v := range xs` where v copies a large
// element each iteration.
func checkBigRange(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if val, ok := rng.Value.(*ast.Ident); ok && val.Name != "_" {
			if size, name, big := bigValue(pass.Pkg, val); big {
				pass.Reportf(rng.Pos(), "range copies ~%d-byte %s per iteration; range over indices or use *%s elements", size, name, name)
			}
		}
		return true
	})
}
