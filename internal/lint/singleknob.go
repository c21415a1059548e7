package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

func init() {
	Register(&Analyzer{
		Name: "singleknob",
		Doc: "an exported field of a *Config struct under internal/ that nothing " +
			"outside its own package's non-test files ever sets has one value in " +
			"use: it is a constant wearing a knob's clothes, and every such field " +
			"is a configuration dimension tests are implicitly asked to cover",
		Run: runSingleKnob,
	})
}

// singleKnobFinding is one cached diagnostic of the module-wide
// analysis, tagged with the package that declares the field.
type singleKnobFinding struct {
	pkg *Package
	pos token.Pos
	msg string
}

func runSingleKnob(pass *Pass) {
	if !dirHasPrefix(pass.Pkg.Dir, "internal") {
		return
	}
	for _, fi := range pass.Mod.singleKnobFindings() {
		if fi.pkg == pass.Pkg {
			pass.Reportf(fi.pos, "%s", fi.msg)
		}
	}
}

// singleKnobFindings is a whole-module property (who writes a field is
// answered by every package), computed once.
func (m *Module) singleKnobFindings() []singleKnobFinding {
	m.singleKnobOnce.Do(func() { m.singleKnob = m.computeSingleKnob() })
	return m.singleKnob
}

// computeSingleKnob walks the module's knobs — exported fields of
// structs named *Config declared in non-test files under internal/ —
// and returns a finding for each one no caller sets. A caller is a test
// file, or any file of another package; a field is set where it is a
// composite-literal key (or position) or any selector on the path of an
// assignment target, so cfg.Params.CardsPerTray = 4 sets Params too.
func (m *Module) computeSingleKnob() (findings []singleKnobFinding) {
	set := map[*types.Var]bool{}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			mark := func(obj types.Object) {
				v, ok := obj.(*types.Var)
				if !ok || !v.IsField() {
					return
				}
				if owner := m.byTypes[v.Pkg()]; f.IsTest || owner == nil || owner.Dir != pkg.Dir {
					set[v.Origin()] = true
				}
			}
			target := func(e ast.Expr) {
				for {
					switch x := e.(type) {
					case *ast.SelectorExpr:
						mark(pkg.Info.Uses[x.Sel])
						e = x.X
					case *ast.IndexExpr:
						e = x.X
					case *ast.StarExpr:
						e = x.X
					case *ast.ParenExpr:
						e = x.X
					default:
						return
					}
				}
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(x.X)
				case *ast.CompositeLit:
					t := pkg.typeOf(x)
					if elem := pointee(t); elem != nil {
						t = elem // the & elided inside []*T{{...}}
					}
					st, ok := under[*types.Struct](t)
					if !ok {
						return true
					}
					for i, elt := range x.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								mark(pkg.Info.Uses[key])
							}
						} else if i < st.NumFields() {
							mark(st.Field(i))
						}
					}
				}
				return true
			})
		}
	}

	for _, pkg := range m.Pkgs {
		if !dirHasPrefix(pkg.Dir, "internal") {
			continue
		}
		for _, f := range pkg.Files {
			if f.IsTest {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !strings.HasSuffix(ts.Name.Name, "Config") {
					return true
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if v, ok := pkg.Info.Defs[name].(*types.Var); ok && name.IsExported() && !set[v] {
							findings = append(findings, singleKnobFinding{pkg: pkg, pos: name.Pos(),
								msg: "no caller sets " + pkg.Name + "." + ts.Name.Name + "." + name.Name +
									": make it a constant or name who does"})
						}
					}
				}
				return false
			})
		}
	}
	return findings
}
