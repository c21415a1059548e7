package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Config controls one analysis run.
type Config struct {
	// Root is the directory treated as the module root. Package Dir
	// values are relative to it.
	Root string
	// Analyzers to run; nil means All().
	Analyzers []*Analyzer
	// Dirs restricts analysis to these root-relative directories (and
	// their subtrees). Nil means the whole tree.
	Dirs []string
}

// skipDirNames are directory basenames never descended into.
var skipDirNames = map[string]bool{
	".git":         true,
	"testdata":     true,
	"vendor":       true,
	"node_modules": true,
}

// Timing is the per-rule wall-time report of one run, written into
// lint_report.json by `vculint -timing` so scripts/check.sh can hold
// the lint suite to its latency budget.
type Timing struct {
	// LoadMS covers parsing the module and type-checking it (go/types
	// over every package, the standard library from source on the first
	// run of a process); it is most of TotalMS.
	LoadMS float64 `json:"load_ms"`
	// RulesMS maps analyzer name to its total wall time across all
	// packages.
	RulesMS map[string]float64 `json:"rules_ms"`
	TotalMS float64            `json:"total_ms"`
}

// Run parses every Go package under cfg.Root, runs the configured
// analyzers, applies //lint:ignore suppressions, and returns the
// surviving diagnostics sorted by position.
func Run(cfg Config) ([]Diagnostic, error) {
	diags, _, err := RunReport(cfg)
	return diags, err
}

// RunReport is Run plus the per-rule timing report.
func RunReport(cfg Config) ([]Diagnostic, *Timing, error) {
	start := time.Now()
	timing := &Timing{RulesMS: map[string]float64{}}
	analyzers := cfg.Analyzers
	if analyzers == nil {
		analyzers = All()
	}
	mod, parseDiags, err := loadModule(cfg.Root)
	if err != nil {
		return nil, nil, err
	}
	pkgs, fset := mod.Pkgs, mod.fset
	timing.LoadMS = msSince(start)
	for _, a := range analyzers {
		timing.RulesMS[a.Name] += 0 // every configured rule appears in the report
	}

	diags := parseDiags
	for _, pkg := range pkgs {
		if cfg.Dirs != nil && !dirMatchesAny(pkg.Dir, cfg.Dirs) {
			continue
		}
		for _, a := range analyzers {
			pass := &Pass{Pkg: pkg, Mod: mod, analyzer: a, fset: fset, diags: &diags}
			ruleStart := time.Now()
			a.Run(pass)
			timing.RulesMS[a.Name] += msSince(ruleStart)
		}
	}

	diags = applySuppressions(cfg.Root, pkgs, diags)
	// The whole module is always loaded (cross-package facts need
	// it), so pseudo-rule diagnostics emitted during loading (parse,
	// lintdirective) must be filtered down to the requested subtree too.
	if cfg.Dirs != nil {
		kept := diags[:0]
		for _, d := range diags {
			rel, err := filepath.Rel(cfg.Root, d.File)
			if err != nil {
				kept = append(kept, d)
				continue
			}
			if dirMatchesAny(filepath.ToSlash(filepath.Dir(rel)), cfg.Dirs) {
				kept = append(kept, d)
			}
		}
		diags = kept
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Col != diags[j].Col {
			return diags[i].Col < diags[j].Col
		}
		return diags[i].Rule < diags[j].Rule
	})
	timing.TotalMS = msSince(start)
	return diags, timing, nil
}

// msSince converts elapsed time to milliseconds for the report.
func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// loadPackages walks root collecting and parsing every .go file,
// grouped by (directory, package name). Unparsable files become
// diagnostics under the pseudo-rule "parse" rather than aborting the
// run, so one broken file does not hide findings elsewhere.
func loadPackages(fset *token.FileSet, root string) ([]*Package, []Diagnostic, error) {
	byKey := map[string]*Package{}
	var parseDiags []Diagnostic

	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (skipDirNames[d.Name()] || strings.HasPrefix(d.Name(), "_") || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		rel, relErr := filepath.Rel(root, path)
		if relErr != nil {
			return relErr
		}
		rel = filepath.ToSlash(rel)
		astFile, parseErr := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if parseErr != nil {
			parseDiags = append(parseDiags, Diagnostic{
				Rule:    "parse",
				Message: parseErr.Error(),
				File:    path,
				Line:    1,
				Col:     1,
			})
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		if dir == "" {
			dir = "."
		}
		pkgName := astFile.Name.Name
		key := dir + "\x00" + pkgName
		pkg := byKey[key]
		if pkg == nil {
			pkg = &Package{Dir: dir, Name: pkgName}
			byKey[key] = pkg
		}
		f := &File{
			Path:    rel,
			AST:     astFile,
			Fset:    fset,
			IsTest:  strings.HasSuffix(d.Name(), "_test.go"),
			ignores: map[int]map[string]bool{},
		}
		collectIgnores(fset, astFile, f.ignores, &parseDiags)
		pkg.Files = append(pkg.Files, f)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("lint: walking %s: %w", root, err)
	}

	pkgs := make([]*Package, 0, len(byKey))
	for _, p := range byKey {
		sort.Slice(p.Files, func(i, j int) bool { return p.Files[i].Path < p.Files[j].Path })
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool {
		if pkgs[i].Dir != pkgs[j].Dir {
			return pkgs[i].Dir < pkgs[j].Dir
		}
		return pkgs[i].Name < pkgs[j].Name
	})
	return pkgs, parseDiags, nil
}

// pseudoRules are diagnostic sources that are not registered analyzers
// but are still valid in //lint:ignore directives.
var pseudoRules = map[string]bool{
	"parse":         true,
	"lintdirective": true,
	"*":             true,
}

// knownRule reports whether name is addressable by an ignore directive:
// a registered analyzer, a pseudo-rule, or the wildcard.
func knownRule(name string) bool {
	return pseudoRules[name] || Lookup(name) != nil
}

// collectIgnores scans a file's comments for //lint:ignore directives
// and records which rules are suppressed on which lines. A directive
// suppresses its own line and the following line, so it works both as a
// trailing comment and as a standalone comment above the finding. The
// rule field may be a comma-separated list. Malformed directives
// (missing rule or reason) and unknown rule names — which would
// otherwise sit in the tree silently never matching anything — are
// reported under the pseudo-rule "lintdirective".
func collectIgnores(fset *token.FileSet, f *ast.File, ignores map[int]map[string]bool, diags *[]Diagnostic) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			fields := strings.Fields(text)
			if len(fields) < 2 {
				*diags = append(*diags, Diagnostic{
					Rule:    "lintdirective",
					Message: "malformed //lint:ignore: want \"//lint:ignore <rule> <reason>\"",
					Pos:     pos,
					File:    pos.Filename,
					Line:    pos.Line,
					Col:     pos.Column,
				})
				continue
			}
			for _, rule := range strings.Split(fields[0], ",") {
				if !knownRule(rule) {
					*diags = append(*diags, Diagnostic{
						Rule:    "lintdirective",
						Message: fmt.Sprintf("unknown rule %q in //lint:ignore directive", rule),
						Pos:     pos,
						File:    pos.Filename,
						Line:    pos.Line,
						Col:     pos.Column,
					})
					continue
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					set := ignores[line]
					if set == nil {
						set = map[string]bool{}
						ignores[line] = set
					}
					set[rule] = true
				}
			}
		}
	}
}

// applySuppressions drops diagnostics silenced by //lint:ignore
// directives. Matching is by absolute file path as recorded in the
// FileSet, so it works for any Root.
func applySuppressions(root string, pkgs []*Package, diags []Diagnostic) []Diagnostic {
	// abs file path -> line -> suppressed rules
	byFile := map[string]map[int]map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if len(f.ignores) == 0 {
				continue
			}
			abs := f.Fset.Position(f.AST.Pos()).Filename
			byFile[abs] = f.ignores
		}
	}
	out := diags[:0]
	for _, d := range diags {
		if rules, ok := byFile[d.File]; ok {
			if set, ok := rules[d.Line]; ok && (set[d.Rule] || set["*"]) {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// FindModuleRoot walks upward from dir looking for go.mod, so the CLI
// can be invoked from any subdirectory.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
