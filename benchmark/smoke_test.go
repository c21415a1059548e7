package main

import (
	"maps"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"
)

func smokeOptions(t *testing.T, trace bool) options {
	return options{seed: 7, seconds: 0.05, trace: trace, smoke: true, outDir: t.TempDir()}
}

func declared(ms []declaredMetric) []string {
	out := make([]string, 0, len(ms))
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	seen := map[string]int{}
	for _, k := range want {
		seen[k]++
		if seen[k] > 1 {
			t.Errorf("%s: %s declared twice", what, k)
		}
	}
	for _, k := range got {
		if seen[k] == 0 {
			t.Errorf("%s: reports %s, which BENCHMARK.json does not declare", what, k)
		}
		delete(seen, k)
	}
	for k := range seen {
		t.Errorf("%s: does not report %s, which BENCHMARK.json declares", what, k)
	}
}

// TestDeclarationMatchesOutput runs every workload at smoke sizes,
// untraced and traced, and holds what each reports to BENCHMARK.json:
// every declared metric once, nothing undeclared, units as declared.
func TestDeclarationMatchesOutput(t *testing.T) {
	var decl declaration
	if err := readJSON("../"+declarationPath, &decl); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(decl.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(decl.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(decl.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	units := map[string]string{}
	for _, m := range append(append([]declaredMetric(nil), decl.EndToEnd...), decl.PerLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
		}
		units[m.Name] = m.Unit
	}
	var names []string
	for _, w := range decl.Workloads {
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q is not [A-Za-z0-9_.-]+", w.Name)
		}
		names = append(names, w.Name)
	}
	sort.Strings(names)
	want := append([]string(nil), workloadNames...)
	sort.Strings(want)
	sameNames(t, "workloads", want, names)

	start := time.Now()
	for _, wn := range workloadNames {
		for _, traced := range []bool{false, true} {
			w, err := newWorkload(wn, true)
			if err != nil {
				t.Fatal(err)
			}
			run, want := runUntraced, declared(decl.EndToEnd)
			if traced {
				run, want = runTraced, declared(decl.PerLayer)
			}
			res, err := run(wn, w, smokeOptions(t, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wn, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%v", wn, traced, res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			sameNames(t, wn, slices.Sorted(maps.Keys(res.Metrics)), want)
			if slo := res.Metrics["slo_share"].Value; !traced && slo < 0.9 {
				t.Errorf("%s: slo_share %v at smoke sizes, want every operation inside its limit", wn, slo)
			}
			for k, m := range res.Metrics {
				if m.Unit != units[k] {
					t.Errorf("%s: %s reported in %q, declared in %q", wn, k, m.Unit, units[k])
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is zero", wn, k)
				}
			}
		}
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("smoke sizes took %v, want at most 20s", d)
	}
}

// TestGatesFire checks that the correctness gates see a corrupted packet
// and a truncated container.
func TestGatesFire(t *testing.T) {
	far := time.Now().Add(-time.Second) // one round, then stop

	u := newUploadWorkload(true)
	if err := u.setup(7); err != nil {
		t.Fatal(err)
	}
	mezz := u.clips[1].mezzanine
	mezz[len(mezz)/2] ^= 0x40 // inside a packet payload: its CRC no longer matches
	rec := &recorder{}
	if err := u.run(far, rec, nil); err != nil {
		t.Fatal(err)
	}
	if v := u.verify(rec); v.failed == 0 || v.good == 1 {
		t.Errorf("corrupted mezzanine packet: failed=%d good=%v, want a failed upload", v.failed, v.good)
	}

	p := newPlaybackWorkload(true)
	if err := p.setup(7); err != nil {
		t.Fatal(err)
	}
	st := p.streams[0]
	st.muxed = st.muxed[:len(st.muxed)-9] // cuts into the index footer
	rec = &recorder{}
	if err := p.run(far, rec, nil); err != nil {
		t.Fatal(err)
	}
	if v := p.verify(rec); v.failed == 0 || v.good == 1 {
		t.Errorf("truncated container: failed=%d good=%v, want a failed pass", v.failed, v.good)
	}
}
