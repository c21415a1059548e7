package cluster

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/gameday_stats.golden from this tree")

// TestGameDayStatsGolden holds every game-day's Stats across commits:
// the determinism tests compare two runs inside one binary, so a change
// that moves a counter on both runs passes them all. The golden file is
// one line per scenario and seed; regenerate it with
//
//	go test ./internal/cluster -run TestGameDayStatsGolden -update
//
// only in a commit whose purpose is to change behaviour. Every run also
// carries the memo probe: each answer the blocked-need memo gives in
// first-fit's place is checked against the workers. Each scenario runs
// at seeds 1–5, except the ring park (ringPark), the one whose lines
// count affinity overflows, which is heavier and runs at seeds 1–2.
func TestGameDayStatsGolden(t *testing.T) {
	probe := &memoProbe{t: t}
	scenarioProbe = probe
	defer func() { scenarioProbe = nil }()
	scenarios := []struct {
		name  string
		seeds uint64
		run   func(seed uint64) Stats
	}{
		{"chaos", 5, func(seed uint64) Stats {
			c, _, _ := chaosScenario(seed, 32, 40, 3, 40*time.Minute)
			c.Eng.RunUntil(6 * time.Hour)
			return c.Stats
		}},
		{"overload", 5, func(seed uint64) Stats {
			c, _, _ := overloadGameDay(seed, 800, 5, 1)
			return c.Stats
		}},
		{"autoscale", 5, func(seed uint64) Stats {
			c, _, _ := autoscaleGameDay(seed, 700)
			return c.Stats
		}},
		{"audit", 5, func(seed uint64) Stats {
			c, _ := auditScenarioSeed(seed, 0.05, 150)
			return c.Stats
		}},
		{"repair-recycle", 5, func(seed uint64) Stats { return repairRecycleScenario(seed, 24).Stats }},
		{"pools", 5, func(seed uint64) Stats {
			c, _ := starvedPoolScenario(seed)
			return c.Stats
		}},
		{"ring-park", 2, func(seed uint64) Stats { return ringPark(seed, probe.arm, nil).Stats }},
	}
	var got strings.Builder
	for _, sc := range scenarios {
		for seed := uint64(1); seed <= sc.seeds; seed++ {
			fmt.Fprintf(&got, "%s seed=%d %+v\n", sc.name, seed, sc.run(seed))
		}
	}
	if probe.hits == 0 || probe.walks == 0 {
		t.Fatalf("memo probe saw %d memo answers and %d walks; it is not armed", probe.hits, probe.walks)
	}
	const path = "testdata/gameday_stats.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d differs\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
