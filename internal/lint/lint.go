// Package lint is a zero-dependency static-analysis framework for this
// repository. It encodes project invariants that generic tools do not
// check — deterministic simulation (no wall clock, no global RNG),
// dropped errors, large value copies on the pixel path, and
// configuration knobs nobody turns — as executable analyzers, so
// operational rules from the warehouse-scale deployment story
// (reproducible BD-rates, predictable per-core memory behaviour) are
// enforced in CI rather than in review folklore.
//
// The framework is built on the standard library only: it walks the
// module by directory, parses with go/parser and type-checks with
// go/types (module.go), so it needs nothing beyond the Go toolchain.
//
// Suppression: a finding may be silenced with a comment of the form
//
//	//lint:ignore <rule> <reason>
//
// placed either on the offending line or on the line directly above it.
// The reason is mandatory; a bare ignore directive is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a rule name, a human-readable message, and
// a resolved file position.
type Diagnostic struct {
	Rule    string         `json:"rule"`
	Message string         `json:"message"`
	Pos     token.Position `json:"-"`

	// Flattened position fields for -json output.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// File is one parsed source file belonging to a Package.
type File struct {
	// Path is the slash-separated path relative to the analysis root.
	Path   string
	AST    *ast.File
	Fset   *token.FileSet
	IsTest bool

	// ignores maps line number -> set of suppressed rule names.
	ignores map[int]map[string]bool
}

// Package is a group of files sharing a directory and package name.
// External test packages (package foo_test) form their own Package.
type Package struct {
	// Dir is the slash-separated directory path relative to the
	// analysis root ("." for the root itself).
	Dir   string
	Name  string
	Files []*File

	// Types and Info are the type checker's view of the package. Info is
	// partial where the source had type errors; Types is never nil.
	Types *types.Package
	Info  *types.Info
}

// Pass carries the state handed to one analyzer run over one package.
type Pass struct {
	Pkg *Package
	Mod *Module

	analyzer *Analyzer
	fset     *token.FileSet
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Rule:    p.analyzer.Name,
		Message: fmt.Sprintf(format, args...),
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
	})
}

// Analyzer is one named rule. Run is invoked once per package; it should
// inspect pass.Pkg and call pass.Reportf for each finding.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pass *Pass)
}

var registry []*Analyzer

// Register adds an analyzer to the global registry. It panics on a
// duplicate name so a bad registration fails loudly at init time.
func Register(a *Analyzer) {
	for _, r := range registry {
		if r.Name == a.Name {
			panic("lint: duplicate analyzer " + a.Name)
		}
	}
	registry = append(registry, a)
	sort.Slice(registry, func(i, j int) bool { return registry[i].Name < registry[j].Name })
}

// All returns every registered analyzer, sorted by name.
func All() []*Analyzer {
	out := make([]*Analyzer, len(registry))
	copy(out, registry)
	return out
}

// Lookup returns the analyzer with the given name, or nil.
func Lookup(name string) *Analyzer {
	for _, a := range registry {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// dirHasPrefix reports whether dir equals prefix or is nested below it.
func dirHasPrefix(dir, prefix string) bool {
	return dir == prefix || strings.HasPrefix(dir, prefix+"/")
}

// dirMatchesAny reports whether dir is inside any of the listed trees.
func dirMatchesAny(dir string, prefixes []string) bool {
	for _, p := range prefixes {
		if dirHasPrefix(dir, p) {
			return true
		}
	}
	return false
}
