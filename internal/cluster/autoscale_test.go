package cluster

import (
	"testing"
	"time"

	"openvcu/internal/sched"
	"openvcu/internal/transcode"
	"openvcu/internal/workload"
)

// autoscaleSample is one periodic observation of the closed loop.
type autoscaleSample struct {
	At      time.Duration
	Active  int
	Backlog int
	Level   transcode.DegradeLevel
}

// autoscaleGameDay is the controller-interaction game-day: a diurnal
// arrival trace with a 2× spike runs against a park whose active size
// is under autoscaler control while the brownout controller is armed —
// the two loops share the backlog signal and must not fight. No chaos:
// this game-day isolates the controller interaction.
func autoscaleGameDay(seed uint64, base float64) (*Cluster, [3]int, []autoscaleSample) {
	cfg := overloadConfig(4) // 8 small workers, 2 encoder cores each
	cfg.Overload = DefaultOverloadConfig()
	cfg.Autoscale = DefaultAutoscaleConfig()
	cfg.Autoscale.MinWorkers = 2
	cfg.Autoscale.InitialWorkers = 3
	cfg.Seed = seed
	c := newScenario(cfg)

	arr := workload.GenerateArrivals(workload.ArrivalConfig{
		Seed:             seed,
		Horizon:          90 * time.Minute,
		BaseRatePerHour:  base,
		DiurnalAmplitude: 0.3,
		DiurnalPeriod:    3 * time.Hour,
		SpikeStart:       30 * time.Minute,
		SpikeDuration:    30 * time.Minute,
		SpikeFactor:      2,
		LiveShare:        0.3,
		BatchShare:       0.4,
	})
	var done [3]int
	for _, a := range arr {
		a := a
		g := BuildGraph(specForArrival(a), cfg.StepTargetSeconds)
		g.OnDone = func(*Graph) { done[a.Class]++ }
		c.Eng.Schedule(a.At, func() { c.Submit(g) })
	}

	const horizon = 4 * time.Hour
	var samples []autoscaleSample
	var sample func()
	sample = func() {
		samples = append(samples, autoscaleSample{
			At: c.Eng.Now(), Active: c.provisionedWorkers(),
			Backlog: c.TranscodeBacklog(), Level: c.DegradeLevel(),
		})
		if c.Eng.Now() < horizon {
			c.Eng.Schedule(30*time.Second, sample)
		}
	}
	c.Eng.Schedule(30*time.Second, sample)
	c.Eng.RunUntil(horizon)
	return c, done, samples
}

// TestAutoscaleGameDay is the tentpole end-to-end check: the park grows
// into the spike and shrinks back out of it, the brownout ladder and
// the autoscaler never oscillate against each other (zero flips), the
// resize count stays bounded, recovery is monotone, and live SLO
// attainment holds ≥ 0.95 throughout.
func TestAutoscaleGameDay(t *testing.T) {
	c, done, samples := autoscaleGameDay(11, 700)
	st := c.Stats
	as := st.Autoscale

	// The park actually tracked the trace: grew for the spike, shrank
	// after it, and the peak park exceeded the initial size.
	if as.ScaleUps == 0 || as.ScaleDowns == 0 {
		t.Fatalf("park never resized both ways: ups=%d downs=%d", as.ScaleUps, as.ScaleDowns)
	}
	peak := 0
	for _, s := range samples {
		if s.Active > peak {
			peak = s.Active
		}
	}
	if peak <= 3 {
		t.Fatalf("peak park %d never exceeded the initial size", peak)
	}

	// Zero controller oscillation: no resize direction reversal inside
	// the flip guard window, ever.
	if as.Flips != 0 {
		t.Fatalf("%d autoscaler flips — the controllers oscillated", as.Flips)
	}
	// Bounded resize count: a well-damped controller moves a handful of
	// times per demand cycle, not every tick.
	if total := as.ScaleUps + as.ScaleDowns; total > as.Ticks/4 {
		t.Fatalf("%d resizes over %d ticks — controller is thrashing", total, as.Ticks)
	}

	// Live SLO held while the park resized under it.
	if slo := st.SLOAttainment(sched.PriorityCritical); slo < 0.95 {
		t.Fatalf("live SLO %.3f < 0.95; classes %+v", slo, st.Classes)
	}

	// Monotone recovery: once the trace is over and the backlog drained,
	// the park only shrinks — no post-spike re-growth (which would mean
	// the model is chasing its own transients).
	for i := 1; i < len(samples); i++ {
		if samples[i].At < 2*time.Hour {
			continue
		}
		if samples[i].Active > samples[i-1].Active {
			t.Fatalf("park re-grew %d -> %d at %v after the trace ended",
				samples[i-1].Active, samples[i].Active, samples[i].At)
		}
	}
	final := samples[len(samples)-1]
	if final.Active != c.cfg.Autoscale.MinWorkers {
		t.Fatalf("final park %d, want MinWorkers %d", final.Active, c.cfg.Autoscale.MinWorkers)
	}
	if final.Level != transcode.DegradeNone {
		t.Fatalf("degrade level %v after recovery", final.Level)
	}
	if final.Backlog != 0 {
		t.Fatalf("backlog %d not drained by horizon", final.Backlog)
	}

	// Drain-before-remove did its job: nothing the shrink path touched
	// was lost (every drain either retired cleanly or was reclaimed).
	if as.DrainsStarted > 0 && as.WorkersRetired+as.DrainsCancelled < as.DrainsStarted {
		t.Fatalf("drains leaked: started=%d retired=%d cancelled=%d",
			as.DrainsStarted, as.WorkersRetired, as.DrainsCancelled)
	}

	t.Logf("autoscale game day: peak park=%d, ups=%d downs=%d conflicts=%d, live SLO=%.3f, done=%v",
		peak, as.ScaleUps, as.ScaleDowns, as.ConflictTicks,
		st.SLOAttainment(sched.PriorityCritical), done)
	t.Logf("  cost integral=%d worker-ticks, residual=%dppm, high-water=%d, util live/upload=%d/%d ppm",
		as.ActiveWorkerTicks, as.ModelResidualPPM, st.QueueHighWater,
		st.PoolUtilPPM[sched.UseLive], st.PoolUtilPPM[sched.UseUpload])
}

// TestAutoscaleDeterministic: the whole game day — control loop, model,
// resizes, drains — is byte-identical per seed.
func TestAutoscaleDeterministic(t *testing.T) {
	run := func() (Stats, [3]int) {
		c, done, _ := autoscaleGameDay(23, 500)
		return c.Stats, done
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 {
		t.Fatalf("same seed diverged:\n  run1 %+v\n  run2 %+v", s1, s2)
	}
	if d1 != d2 {
		t.Fatalf("completions diverged: %v vs %v", d1, d2)
	}
}

// TestAutoscaleColdStart: a pool scaled to zero pays the warmup penalty
// when demand returns — and serves it. Scale-from-zero at cluster level.
func TestAutoscaleColdStart(t *testing.T) {
	cfg := overloadConfig(1)
	cfg.Autoscale = DefaultAutoscaleConfig()
	cfg.Autoscale.MinWorkers = 0
	cfg.Autoscale.InitialWorkers = 0
	cfg.Autoscale.Warmup = time.Minute
	c := New(cfg)
	if got := c.provisionedWorkers(); got != 0 {
		t.Fatalf("cold pool has %d active workers", got)
	}
	done := 0
	var doneAt time.Duration
	g := BuildGraph(uploadSpec(1), 10)
	g.OnDone = func(*Graph) { done++; doneAt = c.Eng.Now() }
	c.Submit(g)
	c.Eng.RunUntil(time.Hour)
	as := c.Stats.Autoscale
	if done != 1 {
		t.Fatalf("video did not complete from a cold pool; stats %+v", as)
	}
	if as.ColdStarts == 0 {
		t.Fatal("no cold start counted")
	}
	if as.WorkersActivated == 0 {
		t.Fatal("no workers activated")
	}
	// The first control tick is at 30s, plus a 60s warmup: nothing can
	// complete before 90s — the cold-start penalty is real, not cosmetic.
	if doneAt < 90*time.Second {
		t.Fatalf("completion at %v beat the cold-start penalty", doneAt)
	}
}

// TestAutoscaleDrainBeforeRemove at cluster level: a shrink that hits a
// busy worker drains it — in-flight steps finish on the capacity they
// reserved, and the worker parks only once idle.
func TestAutoscaleDrainBeforeRemove(t *testing.T) {
	cfg := overloadConfig(1) // 2 workers
	cfg.Autoscale = DefaultAutoscaleConfig()
	cfg.Autoscale.Period = time.Hour // manual control below
	cfg.Autoscale.MinWorkers = 2
	cfg.Autoscale.InitialWorkers = 2
	c := New(cfg)
	done := 0
	for i := 0; i < 6; i++ {
		g := BuildGraph(uploadSpec(i), 10)
		g.OnDone = func(*Graph) { done++ }
		c.Submit(g)
	}
	c.Eng.RunUntil(time.Second) // steps are now in flight on both workers
	if pc := c.census(); pc.busy[0]+pc.busy[1] == 0 {
		t.Fatal("setup: no busy workers")
	}
	c.scaleDown(1)
	as := &c.Stats.Autoscale
	if as.DrainsStarted != 1 || as.WorkersRetired != 0 {
		t.Fatalf("busy shrink: drains=%d retired=%d, want 1/0", as.DrainsStarted, as.WorkersRetired)
	}
	if c.provisionedWorkers() != 1 {
		t.Fatalf("draining worker still counted active: %d", c.provisionedWorkers())
	}
	// Let the in-flight work finish, then reap.
	c.Eng.RunUntil(time.Hour)
	c.as.reapDrains(as)
	if as.WorkersRetired != 1 {
		t.Fatalf("drained worker not retired: %+v", *as)
	}
	if done != 6 {
		t.Fatalf("drain lost in-flight work: %d/6 done; stats %+v", done, c.Stats)
	}
}

// TestAutoscaleHoldsShrinkDuringBrownout: the priority protocol's first
// half — while the brownout ladder is degrading, the autoscaler refuses
// to shrink no matter how low utilization reads, and counts the
// conflict.
func TestAutoscaleHoldsShrinkDuringBrownout(t *testing.T) {
	cfg := overloadConfig(1)
	cfg.Autoscale = DefaultAutoscaleConfig()
	cfg.Autoscale.Period = time.Hour // ticked manually
	cfg.Autoscale.MinWorkers = 1
	cfg.Autoscale.InitialWorkers = 2
	c := New(cfg)
	c.degradeLevel = transcode.DegradeTrim // brownout is degrading
	for i := 0; i < 6; i++ {               // idle park, zero demand: shrink-eligible
		c.autoscaleTick()
	}
	as := c.Stats.Autoscale
	if as.ScaleDowns != 0 {
		t.Fatalf("autoscaler shrank %d times under an active brownout", as.ScaleDowns)
	}
	if as.ConflictTicks == 0 {
		t.Fatal("suppressed shrink not counted as a conflict")
	}
	// Brownout lifts: the same conditions now shrink after the
	// hysteresis persistence.
	c.degradeLevel = transcode.DegradeNone
	for i := 0; i <= downStableTicks; i++ {
		c.autoscaleTick()
	}
	if c.Stats.Autoscale.ScaleDowns == 0 {
		t.Fatal("autoscaler never shrank after the brownout lifted")
	}
	if got := c.provisionedWorkers(); got != 1 {
		t.Fatalf("park %d after shrink, want MinWorkers 1", got)
	}
}

// TestBrownoutHoldsWhileResizeInFlight: the protocol's second half —
// while an autoscaler resize is settling, the brownout controller does
// not raise its level on the transient, and counts the conflict.
func TestBrownoutHoldsWhileResizeInFlight(t *testing.T) {
	cfg := overloadConfig(1)
	cfg.Overload = DefaultOverloadConfig()
	cfg.Autoscale = DefaultAutoscaleConfig()
	cfg.Autoscale.Period = time.Hour // no background ticks
	cfg.Autoscale.MinWorkers = 2
	cfg.Autoscale.InitialWorkers = 2
	c := New(cfg)
	// Deep backlog: far above the brownout enter threshold.
	for i := 0; i < 60; i++ {
		spec := uploadSpec(i)
		spec.Batch = true
		c.Submit(BuildGraph(spec, 10))
	}
	// A resize is in flight: one worker is draining out.
	c.scaleDown(1)
	if !c.census().resizing() {
		t.Fatal("setup: no resize in flight")
	}
	c.brownoutTick()
	if lvl := c.DegradeLevel(); lvl != transcode.DegradeNone {
		t.Fatalf("brownout rose to %v while a resize was settling", lvl)
	}
	if c.Stats.Autoscale.ConflictTicks == 0 {
		t.Fatal("suppressed brownout rise not counted as a conflict")
	}
	// Resize settles (drain reclaimed): the same signal now raises the
	// level.
	c.scaleUp(1)
	if c.census().resizing() {
		t.Fatal("setup: resize still in flight after reclaim")
	}
	c.brownoutTick()
	if lvl := c.DegradeLevel(); lvl != transcode.DegradeTrim {
		t.Fatalf("brownout level %v after the resize settled, want trim", lvl)
	}
}

// TestRebalanceStandsDownForDrainingPool: the pool rebalancer must not
// pull workers into (or out of) a pool the autoscaler is draining.
func TestRebalanceStandsDownForDrainingPool(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.EnablePools = true
	cfg.LiveShare = 0.5
	cfg.RebalancePeriod = time.Hour // driven manually
	cfg.Autoscale = DefaultAutoscaleConfig()
	cfg.Autoscale.Period = time.Hour
	cfg.Autoscale.MinWorkers = 1 << 20 // clamped to the park: all active
	cfg.Autoscale.InitialWorkers = 1 << 20
	c := New(cfg)
	// Eligible backlog in the upload pool (the existing rebalance test's
	// setup): normally this would pull an idle live worker over.
	g := BuildGraph(uploadSpec(1), 10)
	g.remain = len(g.Steps)
	for _, s := range g.Steps {
		s.graph = g
	}
	c.requeueAfter(g.Steps[0], time.Minute)
	g.Steps[0].eligibleAt = 0
	// But an autoscaler shrink is draining the whole upload pool (every
	// worker, so the backlogged step cannot simply place and vanish).
	var drained []*clusterWorker
	for _, cw := range c.workers {
		if cw.pool == sched.UseUpload {
			cw.sw.BeginDrain()
			drained = append(drained, cw)
		}
	}
	c.as.draining = append(c.as.draining, drained...)
	c.rebalancePools()
	if c.Stats.PoolRebalances != 0 {
		t.Fatalf("%d rebalances into a draining pool", c.Stats.PoolRebalances)
	}
	if c.Stats.Autoscale.RebalanceStandDowns == 0 {
		t.Fatal("stand-down not counted")
	}
	// Drains settle: the same backlog now pulls a worker.
	for _, cw := range drained {
		cw.sw.CancelDrain()
	}
	c.as.draining = nil
	c.rebalancePools()
	if c.Stats.PoolRebalances == 0 {
		t.Fatal("rebalance still standing down after the drain settled")
	}
}

// TestAutoscaleOffByDefault: the zero AutoscaleConfig changes nothing —
// no controller, full static park, zero autoscale stats.
func TestAutoscaleOffByDefault(t *testing.T) {
	c := New(DefaultConfig(1))
	if c.as != nil {
		t.Fatal("autoscaler armed with a zero config")
	}
	done := 0
	for i := 0; i < 20; i++ {
		g := BuildGraph(uploadSpec(i), 10)
		g.OnDone = func(*Graph) { done++ }
		c.Submit(g)
	}
	c.Eng.RunUntil(time.Hour)
	if done != 20 {
		t.Fatalf("completed %d/20", done)
	}
	if c.Stats.Autoscale != (AutoscaleStats{}) {
		t.Fatalf("autoscale stats moved while disabled: %+v", c.Stats.Autoscale)
	}
	if got := c.provisionedWorkers(); got != len(c.workers) {
		t.Fatalf("static park shrank: %d/%d active", got, len(c.workers))
	}
}

// TestReadmitDuringDrainKeepsDrainPending: a host repaired while one of
// its workers is mid drain-before-remove must not hand that worker back
// to the scheduler — it would serve again while still listed as a
// pending drain, billed twice in ActiveWorkerTicks and "reclaimable" by
// a scale-up although there is no drain left to cancel.
func TestReadmitDuringDrainKeepsDrainPending(t *testing.T) {
	cfg := overloadConfig(1) // 1 host, 2 workers
	cfg.RepairLatency = 2 * time.Minute
	cfg.Autoscale = DefaultAutoscaleConfig()
	cfg.Autoscale.Period = time.Hour // no tick reaps the drain below
	cfg.Autoscale.MinWorkers = 2
	cfg.Autoscale.InitialWorkers = 2
	c := New(cfg)
	for i := 0; i < 6; i++ {
		c.Submit(BuildGraph(uploadSpec(i), 10))
	}
	c.Eng.RunUntil(time.Second) // both workers busy
	c.scaleDown(1)
	if len(c.as.draining) != 1 {
		t.Fatalf("setup: %d drains pending, want 1", len(c.as.draining))
	}
	c.sendToRepair(c.Hosts[0])
	c.Eng.RunUntil(5 * time.Minute) // readmitted at 2m; requeued steps place again
	if c.Stats.HostsReadmitted != 1 {
		t.Fatalf("setup: host not readmitted; stats %+v", c.Stats)
	}
	for i := 6; i < 12; i++ {
		c.Submit(BuildGraph(uploadSpec(i), 10))
	}
	c.Eng.RunUntil(6 * time.Minute)
	for _, cw := range c.as.draining {
		if cw.sw.Phase() != sched.PhaseDraining {
			t.Fatalf("VCU %d is listed as a pending drain but is not draining (idle=%v)",
				cw.vcu.ID, cw.sw.Idle())
		}
	}
	if got := c.provisionedWorkers() + len(c.as.draining); got > len(c.workers) {
		t.Fatalf("park bills %d powered workers, has %d", got, len(c.workers))
	}
}
