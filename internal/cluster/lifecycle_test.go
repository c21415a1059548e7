package cluster

import (
	"math/rand"
	"testing"
	"time"

	"openvcu/internal/sched"
)

// mustPanic runs fn and fails unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// sweepTable checks every state × event pair of one axis: a listed pair
// lands where the table says, any other pair panics.
func sweepTable[S comparable](t *testing.T, table map[S]map[event]S, states []S, events []event, wantLegal int) {
	t.Helper()
	cw := New(overloadConfig(1)).workers[0]
	legal := 0
	for _, from := range states {
		for _, ev := range events {
			to, ok := table[from][ev]
			if !ok {
				mustPanic(t, string(ev), func() { move(table, cw, from, ev) })
				continue
			}
			legal++
			if got := move(table, cw, from, ev); got != to {
				t.Errorf("%v --%s--> %v, table says %v", from, ev, got, to)
			}
		}
	}
	if legal != wantLegal {
		t.Errorf("%d legal moves, want %d: the table changed, so must DESIGN.md", legal, wantLegal)
	}
}

func TestLifecycleTransitionTables(t *testing.T) {
	sweepTable(t, healthMoves,
		[]health{healthScreening, healthServing, healthRefused, healthDeviceDown, healthHostDown, healthInRepair},
		[]event{evScreenPass, evScreenFail, evDisable, evCrash, evRepair, evReadmit, evConvict}, 18)
	sweepTable(t, trustMoves,
		[]standing{trusted, demoted, convicted},
		[]event{evDemote, evRepromote, evConvict, evExonerate, evNewBoard, evCrash}, 8)
}

// TestIllegalTransitionsFailLoudly drives the real transition functions
// from states they must not be called in.
func TestIllegalTransitionsFailLoudly(t *testing.T) {
	cfg := overloadConfig(2)
	cfg.RepairLatency = 0
	cfg.Audit = DefaultAuditConfig()
	c := New(cfg)
	cw := c.workers[0]

	mustPanic(t, "readmit of a host not in repair", func() { c.readmitHost(c.Hosts[0]) })
	mustPanic(t, "exonerating a trusted device", func() { c.clearRecord(cw, evExonerate) })
	cw.vcu.Disable()
	mustPanic(t, "disabling a disabled device", func() { c.disableDevice(cw) })
	c.sendToRepair(c.Hosts[0])
	mustPanic(t, "repairing a host already in repair", func() { c.sendToRepair(c.Hosts[0]) })
	mustPanic(t, "screening a worker whose host is in repair", func() { c.startWorker(cw) })
	if c.CrashHost(0); c.Stats.HostsCrashed != 0 {
		t.Error("crashed a host that was already down")
	}
	c.readmitHost(c.Hosts[0])
	if h := c.health(cw); h != healthServing {
		t.Errorf("readmitted worker is %v", h)
	}
}

// TestWarmupBelongsToItsActivation: a shrink that takes a warming
// worker parks it and abandons the warm-up; the abandoned warm-up's
// timer must not open the next activation early.
func TestWarmupBelongsToItsActivation(t *testing.T) {
	cfg := overloadConfig(1)
	cfg.Autoscale = DefaultAutoscaleConfig()
	cfg.Autoscale.Period = time.Hour // driven by hand
	cfg.Autoscale.MinWorkers, cfg.Autoscale.InitialWorkers = 1, 1
	cfg.Autoscale.Warmup = 10 * time.Minute
	c := New(cfg)
	cw := c.workers[1]
	c.scaleUp(1) // warm-up ends at 10m
	if cw.sw.Phase() != sched.PhaseWarming {
		t.Fatalf("activated worker is %v", cw.sw.Phase())
	}
	c.Eng.RunUntil(4 * time.Minute)
	c.scaleDown(1)
	if cw.sw.Phase() != sched.PhaseParked || c.census().resizing() {
		t.Fatalf("shrunk warming worker is %v, census %+v", cw.sw.Phase(), c.census())
	}
	c.Eng.RunUntil(8 * time.Minute)
	c.scaleUp(1) // warm-up ends at 18m
	c.Eng.RunUntil(12 * time.Minute)
	if cw.sw.Phase() != sched.PhaseWarming {
		t.Fatalf("the first activation's timer ended the second warm-up: %v", cw.sw.Phase())
	}
	c.Eng.RunUntil(19 * time.Minute)
	if cw.sw.Phase() != sched.PhaseServing {
		t.Fatalf("worker is %v after its warm-up", cw.sw.Phase())
	}
}

// TestLifecycleModel runs seeded random sequences of every operation
// that moves a worker — autoscaler resizes, audit convictions, hardware
// faults, crashes, repair, worker restarts, pool rebalancing — between
// submits and engine steps, and after each one checks the invariants
// the lifecycle exists to hold.
func TestLifecycleModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := overloadConfig(3) // 3 hosts, 6 workers
		cfg.Seed = uint64(seed)
		cfg.EnablePools = true
		cfg.LiveShare = 0.5
		cfg.MaxHostsInRepair = 2
		cfg.RepairLatency = 0 // readmission is an operation below
		cfg.Overload = DefaultOverloadConfig()
		cfg.Audit = DefaultAuditConfig()
		cfg.Autoscale = DefaultAutoscaleConfig()
		cfg.Autoscale.MinWorkers, cfg.Autoscale.InitialWorkers = 1, 4
		cfg.Autoscale.Warmup = 5 * time.Minute // long enough for a shrink to meet a warming worker
		c := New(cfg)
		submitted, done := 0, 0
		probe := BuildGraph(uploadSpec(1<<20), cfg.StepTargetSeconds)
		probe.Steps[0].graph = probe
		probe.Steps[0].execReq = probe.Steps[0].Request

		check := func(op string, step int) {
			t.Helper()
			listed := map[*clusterWorker]bool{}
			for _, cw := range c.as.draining {
				if listed[cw] || cw.sw.Phase() != sched.PhaseDraining {
					t.Fatalf("seed %d op %d %s: VCU %d listed as draining twice or while %v",
						seed, step, op, cw.vcu.ID, cw.sw.Phase())
				}
				listed[cw] = true
			}
			for _, cw := range c.workers {
				h, p := c.health(cw), cw.sw.Phase()
				if h == healthScreening || h > healthInRepair || p > sched.PhaseWarming || cw.standing > convicted {
					t.Fatalf("seed %d op %d %s: VCU %d in no legal cell: %v/%v/%v", seed, step, op, cw.vcu.ID, p, h, cw.standing)
				}
				if (h == healthServing) != cw.up() {
					t.Fatalf("seed %d op %d %s: VCU %d health %v but up()=%v", seed, step, op, cw.vcu.ID, h, cw.up())
				}
				if p == sched.PhaseDraining && !listed[cw] {
					t.Fatalf("seed %d op %d %s: VCU %d drains outside the autoscaler's list", seed, step, op, cw.vcu.ID)
				}
				avail, capacity := cw.sw.Available(), cw.sw.Capacity()
				for d := range capacity {
					if avail[d] < 0 || avail[d] > capacity[d] {
						t.Fatalf("seed %d op %d %s: VCU %d dimension %d: %d of %d available",
							seed, step, op, cw.vcu.ID, d, avail[d], capacity[d])
					}
				}
			}
			// Whatever placement answers, the eligibility table agrees.
			s := probe.Steps[0]
			s.triedVCUs = map[int]bool{}
			if cw, a, _ := c.place(s, c.workerType.Cost(s.execReq), -1); cw != nil {
				if !c.places(cw, c.classOf(s), stepPool(s)) || !cw.accepting() {
					t.Fatalf("seed %d op %d %s: placed on VCU %d, which is %v/%v/%v in pool %v",
						seed, step, op, cw.vcu.ID, cw.sw.Phase(), c.health(cw), cw.standing, cw.pool)
				}
				a.Release()
			}
		}

		for step := 0; step < 1500; step++ {
			cw := c.workers[r.Intn(len(c.workers))]
			h := c.Hosts[r.Intn(len(c.Hosts))]
			var op string
			switch k := r.Intn(20); {
			case k < 4:
				op = "submit"
				spec := uploadSpec(submitted)
				spec.Live, spec.Batch = r.Intn(3) == 0, r.Intn(3) == 0
				g := BuildGraph(spec, cfg.StepTargetSeconds)
				g.OnDone = func(*Graph) { done++ }
				submitted++
				c.Submit(g)
			case k < 9:
				op = "run"
				c.Eng.RunUntil(c.Eng.Now() + time.Duration(r.Intn(40))*time.Second)
			case k == 9:
				op = "scaleUp"
				c.scaleUp(1 + r.Intn(3))
			case k == 10:
				op = "scaleDown"
				c.scaleDown(1 + r.Intn(3))
			case k == 11:
				op = "reapDrains"
				c.as.reapDrains(&c.Stats.Autoscale)
			case k == 12:
				op = "convict"
				cw.trust = convictTrust / 2
				c.rescore(cw, false)
			case k == 13:
				op = "exonerate"
				if cw.soaking() {
					c.exonerate(cw)
					if cw.standing != trusted {
						t.Fatalf("seed %d op %d: exonerated VCU %d stands %v, want trusted", seed, step, cw.vcu.ID, cw.standing)
					}
				}
			case k == 14:
				op = "vcu.Disable"
				cw.vcu.Disable()
			case k == 15:
				op = "CrashHost"
				c.CrashHost(h.ID)
			case k == 16:
				op = "sendToRepair"
				if c.hostHealth(h) != healthInRepair && c.HostsInRepair() < cfg.MaxHostsInRepair {
					c.sendToRepair(h)
				}
			case k == 17:
				op = "readmitHost"
				if c.hostHealth(h) == healthInRepair {
					c.readmitHost(h)
				}
			case k == 18:
				op = "abortWorker"
				c.abortWorker(cw)
			default:
				op = "rebalancePools"
				c.rebalancePools()
			}
			c.dispatch()
			check(op, step)
		}

		// Quiescence: heal the park, let everything finish, and every
		// reservation — stale or live — has come back.
		for range 3 {
			c.Eng.RunUntil(c.Eng.Now() + time.Minute) // the fault scan claims what is down
			for _, h := range c.Hosts {
				if c.hostHealth(h) == healthInRepair {
					c.readmitHost(h)
				}
			}
		}
		c.Eng.RunUntil(c.Eng.Now() + 12*time.Hour)
		check("quiescence", -1)
		if shed := int(c.Stats.GraphsShed); done+shed != submitted {
			t.Fatalf("seed %d: %d videos done, %d shed, %d submitted; queue %d", seed, done, shed, submitted, c.QueueLen())
		}
		for _, cw := range c.workers {
			if !cw.sw.Idle() {
				t.Fatalf("seed %d: VCU %d not whole at quiescence: %v of %v", seed, cw.vcu.ID, cw.sw.Available(), cw.sw.Capacity())
			}
		}
	}
}
