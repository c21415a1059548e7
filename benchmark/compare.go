package main

import (
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
)

// declaration mirrors BENCHMARK.json, which is where the workloads, the
// metrics and their bounds are declared; the program reads it rather
// than carry a second copy.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// compare prints, for every pairing of workload and end-to-end metric,
// the base value, the new value, their ratio, the bound and a verdict:
// within, regressed (worse than base by more than the bound), or
// unresolved (either run's own repetition spread is wider than the
// bound, so the two cannot be told apart). It also lists every
// seed-determined output statistic that differs. It reports whether the
// new results may stand: nothing regressed and no more failures.
func compare(declPath, basePath, newPath string) (bool, error) {
	var decl declaration
	var base, cur suiteResults
	for path, v := range map[string]any{declPath: &decl, basePath: &base, newPath: &cur} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	if base.Machine != cur.Machine {
		fmt.Printf("# machines differ: base %+v, new %+v\n", base.Machine, cur.Machine)
	}
	byName := map[string]workloadResult{}
	for _, w := range cur.Workloads {
		byName[w.Name] = w
	}
	ok := true
	fmt.Printf("%-16s %-14s %12s %12s %7s %6s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "verdict")
	for _, b := range base.Workloads {
		n, found := byName[b.Name]
		if !found {
			fmt.Printf("%-16s missing from %s\n", b.Name, newPath)
			ok = false
			continue
		}
		for _, d := range decl.EndToEnd {
			bm, nm := b.EndToEnd.Metrics[d.Name], n.EndToEnd.Metrics[d.Name]
			verdict := "within"
			worse := nm.Value > bm.Value*(1+d.Bound)
			if d.Better == "higher" {
				worse = nm.Value < bm.Value*(1-d.Bound)
			}
			switch {
			case math.Max(spread(bm), spread(nm)) > d.Bound:
				verdict = "unresolved"
			case worse:
				verdict = "regressed"
				ok = false
			}
			fmt.Printf("%-16s %-14s %12.5g %12.5g %7.3f %6.2f  %s\n", b.Name, d.Name, bm.Value, nm.Value, nm.Value/bm.Value, d.Bound, verdict)
		}
		if share(n.EndToEnd) > share(b.EndToEnd) {
			fmt.Printf("%-16s failed share rose from %.4f to %.4f\n", b.Name, share(b.EndToEnd), share(n.EndToEnd))
			ok = false
		}
		if base.Seed == cur.Seed {
			reportExact(b.Name, b.EndToEnd, n.EndToEnd)
		}
	}
	return ok, nil
}

// spread is a metric's repetition spread as a share of its value.
func spread(m metric) float64 {
	if m.Value == 0 {
		return 0
	}
	return (m.Max - m.Min) / math.Abs(m.Value)
}

func share(r *result) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// reportExact lists the output statistics that differ between two runs
// of one seed. A change meant only to make the program faster must leave
// this list empty.
func reportExact(name string, base, cur *result) {
	for _, k := range slices.Sorted(maps.Keys(base.Exact)) {
		if base.Exact[k] != cur.Exact[k] {
			fmt.Printf("%-16s %-26s differs: %v -> %v\n", name, k, base.Exact[k], cur.Exact[k])
		}
	}
	if base.Digest != cur.Digest {
		fmt.Printf("%-16s %-26s differs: %s -> %s\n", name, "output digest", base.Digest, cur.Digest)
	}
}

// declarationPath is where the benchmark's declaration sits relative to
// the directory the benchmark is run from, the repository root.
const declarationPath = "BENCHMARK.json"

func mustCompare(basePath, newPath string) {
	ok, err := compare(declarationPath, basePath, newPath)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}
