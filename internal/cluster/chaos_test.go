package cluster

import (
	"os"
	"testing"
	"time"

	"openvcu/internal/vcu"
)

// chaosScenario builds the standard chaos run: a multi-host cluster
// with consistent hashing, hedging, the watchdog, the output auditor
// and the full repair→readmit lifecycle on, a seeded fault schedule
// covering every fault class plus host crashes, and a stream of
// uploads submitted across the fault window.
func chaosScenario(seed uint64, videos, vcuFaults, hostCrashes int,
	window time.Duration) (*Cluster, []*Graph, *int) {
	cfg := DefaultConfig(4)
	cfg.ConsistentHashing = true
	cfg.AffinitySize = 8
	cfg.HedgeMultiplier = 4
	cfg.RepairLatency = 15 * time.Minute
	cfg.Audit = DefaultAuditConfig()
	cfg.Seed = seed
	c := newScenario(cfg)

	events := GenerateChaos(ChaosConfig{
		Seed:                   seed,
		Window:                 window,
		Hosts:                  cfg.Hosts,
		VCUsPerHost:            cfg.Params.VCUsPerHost(),
		VCUFaults:              vcuFaults,
		HostCrashes:            hostCrashes,
		IntermittentCorruption: true,
	})
	c.ApplyChaos(events)

	done := new(int)
	var graphs []*Graph
	interval := window / time.Duration(videos)
	for i := 0; i < videos; i++ {
		g := BuildGraph(uploadSpec(i), 10)
		g.OnDone = func(*Graph) { *done++ }
		graphs = append(graphs, g)
		at := interval * time.Duration(i)
		c.Eng.Schedule(at, func() { c.Submit(g) })
	}
	return c, graphs, done
}

// TestChaosInvariants is the tentpole end-to-end check: under a seeded
// schedule of fail-stop, corruption, hang, slowdown and transient
// device faults plus whole-host crashes, every video still completes,
// the simulation terminates despite hung devices, non-overflow
// placements respect the consistent-hashing blast-radius bound, and
// steady-state capacity recovers through the repair→readmit lifecycle.
// CHAOS_LONG=1 (make chaos) scales the schedule up.
func TestChaosInvariants(t *testing.T) {
	videos, vcuFaults, crashes := 32, 40, 3
	window := 40 * time.Minute
	horizon := 6 * time.Hour
	if os.Getenv("CHAOS_LONG") != "" {
		videos, vcuFaults, crashes = 120, 120, 8
		window = 3 * time.Hour
		horizon = 24 * time.Hour
	}
	c, graphs, done := chaosScenario(7, videos, vcuFaults, crashes, window)
	c.Eng.RunUntil(horizon)

	// Invariant 1: every video completes — hardware retry, hedging,
	// watchdog recovery and the software fallback together guarantee
	// forward progress under every injected fault class.
	if *done != videos {
		t.Fatalf("completed %d/%d videos; queue=%d stats=%+v",
			*done, videos, c.QueueLen(), c.Stats)
	}
	// Invariant 2: hangs existed and were recovered by deadline, not by
	// luck — the run terminated with hung devices only because the
	// watchdog fired. The schedule must also have actually hurt running
	// work, or the run proves nothing.
	if c.Stats.WatchdogFires == 0 {
		t.Fatal("chaos schedule includes FaultHang but the watchdog never fired")
	}
	if c.Stats.StepsFailed == 0 {
		t.Fatal("chaos run produced no step failures — schedule too sparse to exercise recovery")
	}
	// Invariant 3: blast radius. Every placement of a step that never
	// overflowed its affinity set landed inside that set, so one faulty
	// VCU can only touch videos whose affinity sets include it.
	k := c.cfg.AffinitySize
	for _, g := range graphs {
		affinity := c.ring.AffinitySet(g.ID, k)
		for _, s := range g.Steps {
			if s.Kind != StepTranscode || s.OverflowPlaced {
				continue
			}
			for _, id := range s.RanOnVCU {
				if !affinity[id] {
					t.Fatalf("video %d step %d ran on VCU %d outside its affinity set",
						g.ID, s.ID, id)
				}
			}
		}
	}
	// Invariant 4: repair capacity loss is bounded by the repair cap and
	// recovers — by the final epoch the cluster is back to within one
	// host of full capacity.
	if c.HostsInRepair() > c.cfg.MaxHostsInRepair {
		t.Fatalf("hosts in repair %d exceeds cap %d",
			c.HostsInRepair(), c.cfg.MaxHostsInRepair)
	}
	if healthy := c.HealthyHosts(); healthy < c.cfg.Hosts-1 {
		t.Fatalf("capacity did not recover: %d/%d healthy hosts (in repair: %d)",
			healthy, c.cfg.Hosts, c.HostsInRepair())
	}
	if c.Stats.HostsSentToRepair > 0 && c.Stats.HostsReadmitted == 0 {
		t.Fatal("hosts went to repair but none were readmitted")
	}
	// Invariant 5: bounded recall blast radius. A conviction recalls at
	// most the device's taint window, no matter how long the corrupter
	// served before the auditor cornered it.
	if max := int64(maxTaintWindow); c.Stats.Audit.RecallWindowMax > max {
		t.Fatalf("recall blast radius %d exceeds taint window %d",
			c.Stats.Audit.RecallWindowMax, max)
	}
	t.Logf("chaos summary: %d videos, %d device faults, %d host crashes", videos, vcuFaults, crashes)
	t.Logf("  watchdog fires=%d hedges=%d/%d won", c.Stats.WatchdogFires,
		c.Stats.HedgesWon, c.Stats.HedgesLaunched)
	t.Logf("  repair: sent=%d readmitted=%d rejected-vcus=%d healthy-hosts=%d/%d",
		c.Stats.HostsSentToRepair, c.Stats.HostsReadmitted,
		c.Stats.ReadmitRejections, c.HealthyHosts(), c.cfg.Hosts)
	t.Logf("  audit: %+v", c.Stats.Audit)
	t.Logf("  failures by class: %+v", c.Stats.Failures)
}

// TestChaosDeterministic asserts the whole fault lifecycle is
// reproducible: two runs from the same seed produce byte-identical
// Stats (the struct is flat and comparable) and identical outcomes.
func TestChaosDeterministic(t *testing.T) {
	run := func() (Stats, int) {
		c, _, done := chaosScenario(21, 8, 6, 1, 20*time.Minute)
		c.Eng.RunUntil(3 * time.Hour)
		return c.Stats, *done
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 {
		t.Fatalf("same seed diverged:\n  run1 %+v\n  run2 %+v", s1, s2)
	}
	if d1 != d2 {
		t.Fatalf("completion counts diverged: %d vs %d", d1, d2)
	}
}

// TestChaosDifferentSeedsDiffer is the sanity complement: the schedule
// generator actually varies with the seed.
func TestChaosDifferentSeedsDiffer(t *testing.T) {
	a := GenerateChaos(ChaosConfig{Seed: 1, Window: time.Hour, Hosts: 4,
		VCUsPerHost: 20, VCUFaults: 10, HostCrashes: 2})
	b := GenerateChaos(ChaosConfig{Seed: 2, Window: time.Hour, Hosts: 4,
		VCUsPerHost: 20, VCUFaults: 10, HostCrashes: 2})
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 generated identical schedules")
	}
}

// TestWatchdogIsLoadBearing proves the deadline mechanism is what makes
// hung devices survivable: with every VCU hang-faulted and the watchdog
// off, the run is demonstrably stuck (zero videos complete — a hung op
// neither fails nor finishes, so retries never trigger); turning the
// watchdog on makes the identical scenario complete every video.
func TestWatchdogIsLoadBearing(t *testing.T) {
	run := func(watchdogMult float64) (int, Stats) {
		cfg := DefaultConfig(1)
		cfg.WatchdogMultiplier = watchdogMult
		cfg.HedgeMultiplier = 0 // isolate the watchdog as the only recovery path
		c := New(cfg)
		// Faults armed after worker start: golden screening has already
		// passed, so the devices accept work and then hang under it.
		for _, h := range c.Hosts {
			for _, v := range h.VCUs {
				v.InjectFault(vcu.FaultHang, 0)
			}
		}
		done := 0
		g := BuildGraph(uploadSpec(1), 10)
		g.OnDone = func(*Graph) { done++ }
		c.Submit(g)
		c.Eng.RunUntil(2 * time.Hour)
		return done, c.Stats
	}
	stuckDone, stuckStats := run(0)
	if stuckDone != 0 {
		t.Fatalf("hung cluster without watchdog completed %d videos", stuckDone)
	}
	if stuckStats.WatchdogFires != 0 {
		t.Fatal("watchdog fired while disabled")
	}
	recoveredDone, recoveredStats := run(8)
	if recoveredDone != 1 {
		t.Fatalf("watchdog-enabled run did not complete; stats %+v", recoveredStats)
	}
	if recoveredStats.WatchdogFires == 0 {
		t.Fatal("recovery happened without the watchdog firing")
	}
	if recoveredStats.Failures.Deadline == 0 {
		t.Fatal("deadline failures not classified")
	}
}

// TestHedgingBeatsStraggler: a pathologically slow device holds the
// primary copy; the hedge launched at the straggler deadline completes
// first and wins, without waiting for the watchdog.
func TestHedgingBeatsStraggler(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.HedgeMultiplier = 2
	c := New(cfg)
	// VCU 0 (first-fit's first choice) becomes 64x slower than spec.
	c.Hosts[0].VCUs[0].InjectFaultSpec(vcu.FaultSpec{Mode: vcu.FaultSlow, SlowFactor: 64})
	done := 0
	g := BuildGraph(uploadSpec(1), 10)
	g.OnDone = func(*Graph) { done++ }
	c.Submit(g)
	c.Eng.RunUntil(time.Hour)
	if done != 1 {
		t.Fatalf("video did not complete; stats %+v", c.Stats)
	}
	if c.Stats.HedgesLaunched == 0 {
		t.Fatal("no hedge launched against the straggler")
	}
	if c.Stats.HedgesWon == 0 {
		t.Fatalf("hedge never won; stats %+v", c.Stats)
	}
}
