// Command vculint runs the project's standard-library-only
// static-analysis suite (internal/lint) over the module tree and exits
// non-zero when any rule fires.
//
// Usage:
//
//	vculint [flags] [./... | dir ...]
//
// Flags:
//
//	-json        emit diagnostics as a JSON array (machine-readable,
//	             consumed by fleetsim/bench tooling and written to
//	             lint_report.json by scripts/check.sh)
//	-timing      include load (parse + type check) and per-rule wall
//	             time; with -json the output becomes
//	             {"diagnostics": [...], "timing": {...}} so
//	             scripts/check.sh can enforce the lint latency budget
//	-rules a,b   run only the named analyzers
//	-list        print registered analyzers and exit
//
// The four rules — determinism, errdrop, bigcopy and the module-wide
// singleknob — read types, callees and sizes from one go/types check of
// the module (internal/lint/module.go), then run one after another over
// each package; see DESIGN.md "Static analysis & CI gates" for what each
// rule alone catches (`make mutants` measures it). `vculint -list`
// prints each rule's one-paragraph documentation.
//
// Useful selections:
//
//	vculint -rules determinism,errdrop ./...
//	vculint -rules bigcopy ./internal/codec
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"openvcu/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("vculint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON")
	timing := fs.Bool("timing", false, "report per-rule wall time (with -json: envelope with a timing object)")
	rules := fs.String("rules", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list registered analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.All()
	if *rules != "" {
		analyzers = nil
		for _, name := range strings.Split(*rules, ",") {
			name = strings.TrimSpace(name)
			a := lint.Lookup(name)
			if a == nil {
				fmt.Fprintf(stderr, "vculint: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "vculint:", err)
		return 2
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "vculint:", err)
		return 2
	}

	// Positional arguments: "./..." (or none) means the whole module;
	// anything else is a directory restriction relative to the module
	// root.
	var dirs []string
	for _, arg := range fs.Args() {
		if arg == "./..." || arg == "..." || arg == "." {
			dirs = nil
			break
		}
		clean := filepath.ToSlash(filepath.Clean(strings.TrimSuffix(arg, "/...")))
		clean = strings.TrimPrefix(clean, "./")
		abs := clean
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(cwd, clean)
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			fmt.Fprintf(stderr, "vculint: %s is outside the module\n", arg)
			return 2
		}
		if fi, err := os.Stat(abs); err != nil || !fi.IsDir() {
			fmt.Fprintf(stderr, "vculint: %s is not a directory\n", arg)
			return 2
		}
		dirs = append(dirs, filepath.ToSlash(rel))
	}

	diags, report, err := lint.RunReport(lint.Config{Root: root, Analyzers: analyzers, Dirs: dirs})
	if err != nil {
		fmt.Fprintln(stderr, "vculint:", err)
		return 2
	}

	// Report paths relative to the invocation directory, the way go
	// vet does, so editors can jump to them.
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		// The bare -json output stays a plain Diagnostic array for
		// existing consumers; the timing envelope is opt-in.
		var payload any = diags
		if *timing {
			payload = struct {
				Diagnostics []lint.Diagnostic `json:"diagnostics"`
				Timing      *lint.Timing      `json:"timing"`
			}{diags, report}
		}
		if err := enc.Encode(payload); err != nil {
			fmt.Fprintln(stderr, "vculint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
		if *timing {
			names := make([]string, 0, len(report.RulesMS))
			for name := range report.RulesMS {
				names = append(names, name)
			}
			sort.Strings(names)
			fmt.Fprintf(stdout, "timing: load %.1fms\n", report.LoadMS)
			for _, name := range names {
				fmt.Fprintf(stdout, "timing: %-13s %.1fms\n", name, report.RulesMS[name])
			}
			fmt.Fprintf(stdout, "timing: total %.1fms\n", report.TotalMS)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "vculint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}
