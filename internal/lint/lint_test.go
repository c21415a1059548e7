package lint

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the expectation regex from a `// want "..."` comment.
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// expectation is one `// want` annotation in a fixture file.
type expectation struct {
	file string // root-relative slash path
	line int
	re   *regexp.Regexp
}

// collectWants scans every fixture file under dir (relative to root)
// for `// want` annotations.
func collectWants(t *testing.T, root, dir string) []expectation {
	t.Helper()
	var wants []expectation
	err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		for n := 1; sc.Scan(); n++ {
			if m := wantRe.FindStringSubmatch(sc.Text()); m != nil {
				re, compErr := regexp.Compile(m[1])
				if compErr != nil {
					t.Fatalf("%s:%d: bad want regex: %v", rel, n, compErr)
				}
				wants = append(wants, expectation{file: filepath.ToSlash(rel), line: n, re: re})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// runFixture runs one analyzer over one fixture directory and checks
// the diagnostics against the `// want` annotations exactly: every want
// must be matched by a diagnostic on its line, and every diagnostic
// must be claimed by a want.
func runFixture(t *testing.T, analyzer, dir string) {
	t.Helper()
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	a := Lookup(analyzer)
	if a == nil {
		t.Fatalf("analyzer %q not registered", analyzer)
	}
	diags, err := Run(Config{Root: root, Analyzers: []*Analyzer{a}, Dirs: []string{dir}})
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, root, dir)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want annotations", dir)
	}

	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			rel, relErr := filepath.Rel(root, d.File)
			if relErr != nil {
				t.Fatal(relErr)
			}
			if filepath.ToSlash(rel) != w.file || d.Line != w.line || matched[i] {
				continue
			}
			if !w.re.MatchString(d.Message) {
				t.Errorf("%s:%d: diagnostic %q does not match want %q", w.file, w.line, d.Message, w.re)
			}
			matched[i] = true
			found = true
			break
		}
		if !found {
			t.Errorf("%s:%d: want %q, got no diagnostic", w.file, w.line, w.re)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d.String())
		}
	}
}

func TestDeterminismFixture(t *testing.T) { runFixture(t, "determinism", "internal/sim") }
func TestBigCopyFixture(t *testing.T)     { runFixture(t, "bigcopy", "internal/video") }
func TestErrDropFixture(t *testing.T)     { runFixture(t, "errdrop", "internal/transcode") }

// singleknob is module-wide: the fixture is a package pair, the *Config
// declarations and the package that sets some of them.
func TestSingleKnobFixture(t *testing.T) { runFixture(t, "singleknob", "internal/knob") }

// TestRunReportTiming verifies the per-rule wall-time report: every
// configured analyzer is billed, and the totals are sane.
func TestRunReportTiming(t *testing.T) {
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	_, timing, err := RunReport(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	if timing == nil {
		t.Fatal("RunReport returned nil timing")
	}
	if timing.TotalMS <= 0 {
		t.Errorf("total_ms not positive: %v", timing.TotalMS)
	}
	if timing.LoadMS < 0 || timing.LoadMS > timing.TotalMS {
		t.Errorf("load_ms %v out of range (total %v)", timing.LoadMS, timing.TotalMS)
	}
	for _, a := range All() {
		ms, ok := timing.RulesMS[a.Name]
		if !ok {
			t.Errorf("rule %s missing from rules_ms", a.Name)
		}
		if ms < 0 {
			t.Errorf("rule %s has negative wall time %v", a.Name, ms)
		}
	}
}

// TestRepoTreeIsClean is the integration gate: the real module tree
// must produce zero diagnostics with every analyzer enabled. If this
// fails, either fix the finding or annotate it with //lint:ignore and
// a reason.
func TestRepoTreeIsClean(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repo tree not lint-clean: %s", d.String())
	}
}

// TestMalformedIgnoreDirective verifies that a reasonless //lint:ignore
// is itself reported.
func TestMalformedIgnoreDirective(t *testing.T) {
	dir := t.TempDir()
	src := "package p\n\n//lint:ignore errdrop\nfunc f() {}\n"
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := Run(Config{Root: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Rule != "lintdirective" {
		t.Fatalf("want one lintdirective finding, got %v", diags)
	}
}

// TestSuppressionSameLineAndAbove verifies both supported placements.
func TestSuppressionSameLineAndAbove(t *testing.T) {
	dir := t.TempDir()
	src := `package p

func mayFail() error { return nil }

func a() {
	mayFail() //lint:ignore errdrop trailing comment placement
}

func b() {
	//lint:ignore errdrop standalone comment placement
	mayFail()
}

func c() {
	mayFail()
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := Run(Config{Root: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly the unsuppressed finding in c(), got %v", diags)
	}
	if diags[0].Rule != "errdrop" || diags[0].Line != 15 {
		t.Fatalf("unexpected diagnostic %v", diags[0])
	}
}

// TestCommaSeparatedIgnore verifies that one directive may silence
// several rules at once, and that listing extra rules does not break
// the match for the rule that actually fires.
func TestCommaSeparatedIgnore(t *testing.T) {
	dir := t.TempDir()
	src := `package p

func mayFail() error { return nil }

func a() {
	//lint:ignore errdrop,determinism fixture accepts both on this line
	mayFail()
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := Run(Config{Root: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("comma-separated directive did not suppress: %v", diags)
	}
}

// TestUnknownRuleInIgnoreDirective verifies that a rule name no
// analyzer owns is reported instead of silently never matching, and
// that known rules in the same comma list still suppress.
func TestUnknownRuleInIgnoreDirective(t *testing.T) {
	dir := t.TempDir()
	src := `package p

func mayFail() error { return nil }

func a() {
	//lint:ignore nosuchrule,errdrop the first name is a typo
	mayFail()
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := Run(Config{Root: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly the lintdirective finding, got %v", diags)
	}
	d := diags[0]
	if d.Rule != "lintdirective" || !strings.Contains(d.Message, `unknown rule "nosuchrule"`) {
		t.Fatalf("unexpected diagnostic %v", d)
	}
}

// TestTypeResolutionFailure runs every analyzer over a file that
// parses cleanly but whose types all come from an unresolvable
// external package: every rule must degrade to unknown —
// producing no findings — rather than crash or guess.
func TestTypeResolutionFailure(t *testing.T) {
	dir := t.TempDir()
	src := `package p

import ext "example.com/vendored/ext"

type holder struct {
	cache ext.Cache
	refs  [4]*ext.Frame
}

func f(h *holder, c ext.Cache, fr *ext.Frame) *ext.Frame {
	h.cache = c
	h.refs[0] = fr
	v := ext.Fetch()
	v.Levels[0] = nil
	go ext.Run()
	return fr
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := Run(Config{Root: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("unresolvable types must not produce findings, got %v", diags)
	}
}

// TestDiagnosticJSON pins the machine-readable shape consumed by
// fleetsim/bench tooling via `vculint -json`.
func TestDiagnosticJSON(t *testing.T) {
	d := Diagnostic{Rule: "errdrop", Message: "m", File: "a/b.go", Line: 3, Col: 7}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	got := string(b)
	want := `{"rule":"errdrop","message":"m","file":"a/b.go","line":3,"col":7}`
	if got != want {
		t.Fatalf("json shape drifted:\n got %s\nwant %s", got, want)
	}
}
