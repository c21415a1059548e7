package cluster

import (
	"os"
	"testing"
	"time"

	"openvcu/internal/codec"
	"openvcu/internal/sched"
	"openvcu/internal/transcode"
	"openvcu/internal/vcu"
	"openvcu/internal/video"
	"openvcu/internal/workload"
)

// specForArrival maps one workload arrival to a video: live streams pace
// in real time at critical priority, uploads are the normal MOT
// pipeline, batch re-encodes are bigger and lowest priority.
func specForArrival(a workload.Arrival) VideoSpec {
	switch a.Class {
	case workload.ArriveLive:
		return VideoSpec{
			ID: a.ID, Resolution: video.Res1080p, FPS: 30, Frames: 300, ChunkFrames: 150,
			Profile: codec.VP9Class, Mode: vcu.EncodeOnePassLowLatency, MOT: true, Live: true,
		}
	case workload.ArriveBatch:
		return VideoSpec{
			ID: a.ID, Resolution: video.Res1080p, FPS: 30, Frames: 600, ChunkFrames: 150,
			Profile: codec.VP9Class, Mode: vcu.EncodeTwoPassOffline, MOT: true, Batch: true,
		}
	default:
		return uploadSpec(a.ID)
	}
}

// overloadConfig returns a deliberately small park — hosts with one
// dual-VCU card and 2 encoder cores per VCU — so a handful of videos
// saturates it and overload behavior is reachable in a fast test
// (DefaultParams absorbs ~320 concurrent steps per host, which would
// need thousands of videos to backlog).
func overloadConfig(hosts int) Config {
	cfg := DefaultConfig(hosts)
	cfg.Params.CardsPerTray = 1
	cfg.Params.TraysPerHost = 1
	cfg.Params.EncoderCores = 2
	return cfg
}

// gameDaySample is one periodic observation of the cluster under load.
type gameDaySample struct {
	At      time.Duration
	Backlog int
	Hedges  int64
	Level   transcode.DegradeLevel
}

// overloadGameDay is the deterministic overload game-day: a 2× demand
// spike layered on a diurnal arrival process, replayed on top of a
// chaos schedule (device faults + a host crash), with admission
// control, deadline drops, the brownout controller and the hedge guard
// all armed. rounds repeats the 90-minute demand trace every 2 hours —
// the long mode's repeated brownout/recovery cycles; chaos runs only in
// the first round's window. Returns the cluster, per-class
// completed-video counts (indexed by workload.ArrivalClass) and the
// periodic samples.
func overloadGameDay(seed uint64, arrivals, faults, rounds int) (*Cluster, [3]int, []gameDaySample) {
	cfg := overloadConfig(2)
	cfg.HedgeMultiplier = 4
	cfg.RepairLatency = 15 * time.Minute
	cfg.Overload = DefaultOverloadConfig()
	cfg.Seed = seed
	c := newScenario(cfg)

	c.ApplyChaos(GenerateChaos(ChaosConfig{
		Seed:        seed,
		Window:      time.Hour,
		Hosts:       cfg.Hosts,
		VCUsPerHost: cfg.Params.VCUsPerHost(),
		VCUFaults:   faults,
		HostCrashes: 1,
	}))

	// Mid-spike, one device per host starts thermal-throttling: every op
	// runs 32x slow, the canonical straggler that hedging exists for.
	// This is the witness for the hedge-guard invariant — with the
	// cluster backlogged, these stragglers must be suppressed, not
	// hedged. (The generated chaos above is low-ID-biased and its
	// victims cycle through repair + golden screening, so it rarely
	// leaves a straggler alive during the spike window.)
	c.Eng.Schedule(40*time.Minute, func() {
		for _, h := range c.Hosts {
			h.VCUs[len(h.VCUs)-1].InjectFaultSpec(vcu.FaultSpec{Mode: vcu.FaultSlow, SlowFactor: 32})
		}
	})

	// Arrival trace: diurnal base with a 2× spike in the second
	// half-hour. BaseRatePerHour is chosen so the pre-spike cluster
	// runs near saturation and the spike pushes it well over.
	arr := workload.GenerateArrivals(workload.ArrivalConfig{
		Seed:             seed,
		Horizon:          90 * time.Minute,
		BaseRatePerHour:  float64(arrivals),
		DiurnalAmplitude: 0.3,
		DiurnalPeriod:    3 * time.Hour,
		SpikeStart:       30 * time.Minute,
		SpikeDuration:    30 * time.Minute,
		SpikeFactor:      2,
		LiveShare:        0.3,
		BatchShare:       0.4,
	})
	if rounds < 1 {
		rounds = 1
	}
	var done [3]int
	for round := 0; round < rounds; round++ {
		offset := time.Duration(round) * 2 * time.Hour
		for _, a := range arr {
			a := a
			g := BuildGraph(specForArrival(a), cfg.StepTargetSeconds)
			g.OnDone = func(*Graph) { done[a.Class]++ }
			c.Eng.Schedule(offset+a.At, func() { c.Submit(g) })
		}
	}

	horizon := time.Duration(rounds-1)*2*time.Hour + 4*time.Hour
	var samples []gameDaySample
	var sample func()
	sample = func() {
		samples = append(samples, gameDaySample{
			At: c.Eng.Now(), Backlog: c.TranscodeBacklog(),
			Hedges: c.Stats.HedgesLaunched, Level: c.DegradeLevel(),
		})
		if c.Eng.Now() < horizon {
			c.Eng.Schedule(30*time.Second, sample)
		}
	}
	c.Eng.Schedule(30*time.Second, sample)
	c.Eng.RunUntil(horizon)
	return c, done, samples
}

// TestOverloadGameDay is the tentpole end-to-end check (acceptance
// criteria of the overload PR): under a 2× demand spike with chaos
// active, the queue stays bounded, live SLO attainment holds above 95%
// while batch sheds and degrades, no hedge launches while the cluster
// is backlogged, and the cluster returns to full quality — no
// degradation residue — after the spike. OVERLOAD_LONG=1 (make
// overload) repeats the demand cycle, exercising brownout recovery and
// re-entry across multiple spikes.
func TestOverloadGameDay(t *testing.T) {
	rounds := 1
	if os.Getenv("OVERLOAD_LONG") != "" {
		rounds = 3
	}
	c, done, samples := overloadGameDay(11, 1600, 15, rounds)
	st := c.Stats
	ov := c.cfg.Overload

	// Invariant 1: bounded queue. The transcode backlog never exceeds
	// the admission bound at any sample.
	maxBacklog := 0
	for _, s := range samples {
		if s.Backlog > ov.MaxQueueLen {
			t.Fatalf("backlog %d exceeds bound %d at %v", s.Backlog, ov.MaxQueueLen, s.At)
		}
		if s.Backlog > maxBacklog {
			maxBacklog = s.Backlog
		}
	}
	// The run must have actually been overloaded, or the invariants are
	// vacuous: the backlog reached the hedge-guard threshold and the
	// admission bound forced real shedding.
	if maxBacklog < ov.HedgeBacklog {
		t.Fatalf("peak backlog %d never reached hedge threshold %d — load too light", maxBacklog, ov.HedgeBacklog)
	}
	if st.Classes[sched.PriorityBatch].Shed == 0 {
		t.Fatal("no batch steps shed under a 2x spike at the admission bound")
	}
	if st.GraphsShed == 0 {
		t.Fatal("no graphs shed")
	}

	// Invariant 2: live SLO attainment ≥ 95% while batch sheds and
	// degrades — the shed order protected the critical class.
	if slo := st.SLOAttainment(sched.PriorityCritical); slo < 0.95 {
		t.Fatalf("live SLO attainment %.3f < 0.95; classes %+v", slo, st.Classes)
	}
	if st.Classes[sched.PriorityBatch].Degraded == 0 {
		t.Fatal("brownout never degraded batch work")
	}
	if st.BrownoutUps == 0 || st.BrownoutDowns == 0 {
		t.Fatalf("brownout controller never cycled: ups=%d downs=%d", st.BrownoutUps, st.BrownoutDowns)
	}
	// Live never degrades: its protection is priority and deadlines,
	// not quality loss.
	if st.Classes[sched.PriorityCritical].Degraded != 0 {
		t.Fatalf("%d live steps degraded", st.Classes[sched.PriorityCritical].Degraded)
	}

	// Invariant 3: the hedge guard engaged, and no hedge launched in
	// any interval that began and ended above the backlog threshold.
	if st.HedgesSuppressed == 0 {
		t.Fatal("hedge guard never engaged despite sustained backlog")
	}
	for i := 1; i < len(samples); i++ {
		prev, cur := samples[i-1], samples[i]
		if prev.Backlog >= ov.HedgeBacklog && cur.Backlog >= ov.HedgeBacklog &&
			cur.Hedges != prev.Hedges {
			t.Fatalf("%d hedges launched between %v and %v while backlogged (%d, %d)",
				cur.Hedges-prev.Hedges, prev.At, cur.At, prev.Backlog, cur.Backlog)
		}
	}

	// Invariant 4: recovery. After the spike drains, the brownout level
	// is back to zero and a fresh video runs at full quality — no
	// degradation residue.
	if lvl := c.DegradeLevel(); lvl != transcode.DegradeNone {
		t.Fatalf("degrade level %v after recovery window", lvl)
	}
	if got := samples[len(samples)-1].Backlog; got > 0 {
		t.Fatalf("backlog %d not drained by horizon", got)
	}
	fresh := BuildGraph(specForArrival(workload.Arrival{ID: 999999, Class: workload.ArriveBatch}), c.cfg.StepTargetSeconds)
	freshDone := 0
	fresh.OnDone = func(*Graph) { freshDone++ }
	c.Submit(fresh)
	c.Eng.RunUntil(c.Eng.Now() + time.Hour)
	if freshDone != 1 {
		t.Fatalf("post-recovery video did not complete; stats %+v", c.Stats)
	}
	for _, s := range fresh.Steps {
		if s.Degraded {
			t.Fatalf("post-recovery step %d ran degraded", s.ID)
		}
		if s.Kind == StepTranscode && len(s.execReq.Outputs) != len(s.Request.Outputs) {
			t.Fatalf("post-recovery step %d ran a trimmed ladder", s.ID)
		}
	}

	t.Logf("game day: peak backlog=%d (bound %d), live SLO=%.3f, done live/upload/batch=%d/%d/%d",
		maxBacklog, ov.MaxQueueLen, st.SLOAttainment(sched.PriorityCritical),
		done[workload.ArriveLive], done[workload.ArriveUpload], done[workload.ArriveBatch])
	t.Logf("  shed: graphs=%d batch-steps=%d; degraded batch=%d upload=%d; deadline-missed live=%d",
		st.GraphsShed, st.Classes[sched.PriorityBatch].Shed,
		st.Classes[sched.PriorityBatch].Degraded, st.Classes[sched.PriorityNormal].Degraded,
		st.Classes[sched.PriorityCritical].DeadlineMissed)
	t.Logf("  brownout ups=%d downs=%d; hedges launched=%d suppressed=%d",
		st.BrownoutUps, st.BrownoutDowns, st.HedgesLaunched, st.HedgesSuppressed)
}

// TestOverloadDeterministic asserts the whole game day is reproducible:
// identical Stats (byte-identical via ==) and per-class completions
// from the same seed.
func TestOverloadDeterministic(t *testing.T) {
	run := func() (Stats, [3]int) {
		c, done, _ := overloadGameDay(23, 800, 5, 1)
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

// TestAdmissionShedsBatchFirst: at the queue bound, an arriving live
// video evicts queued batch work — never the other way around — and the
// evicted batch graphs are shed whole.
func TestAdmissionShedsBatchFirst(t *testing.T) {
	cfg := overloadConfig(1)
	cfg.Overload.MaxQueueLen = 16
	c := New(cfg)
	// Flood with single-chunk batch videos: far more steps than workers +
	// queue bound, so the queue packs to exactly the bound.
	for i := 0; i < 40; i++ {
		spec := uploadSpec(i)
		spec.Batch = true
		spec.Frames = spec.ChunkFrames
		c.Submit(BuildGraph(spec, 10))
	}
	if got := c.TranscodeBacklog(); got > cfg.Overload.MaxQueueLen {
		t.Fatalf("backlog %d exceeds bound %d", got, cfg.Overload.MaxQueueLen)
	}
	preShed := c.Stats.Classes[sched.PriorityBatch].Shed
	if preShed == 0 {
		t.Fatal("batch flood over the bound shed nothing")
	}
	// A live video arrives at the full queue: it must be admitted by
	// evicting batch, and complete.
	liveDone := 0
	live := BuildGraph(specForArrival(workload.Arrival{ID: 1000, Class: workload.ArriveLive}), 10)
	live.OnDone = func(*Graph) { liveDone++ }
	c.Submit(live)
	if c.Stats.Classes[sched.PriorityCritical].Shed != 0 {
		t.Fatal("live steps were shed while batch was queued")
	}
	if c.Stats.Classes[sched.PriorityBatch].Shed <= preShed {
		t.Fatal("live admission did not evict batch")
	}
	c.Eng.RunUntil(2 * time.Hour)
	if liveDone != 1 {
		t.Fatalf("live video did not complete; stats %+v", c.Stats)
	}
	if slo := c.Stats.SLOAttainment(sched.PriorityCritical); slo != 1 {
		t.Fatalf("live SLO %.3f != 1", slo)
	}
}

// TestLiveDeadlineDrop: a live chunk that can no longer finish inside
// its usefulness window is dropped — the stream skips it and continues
// to assembly — instead of being "completed" uselessly late.
func TestLiveDeadlineDrop(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Overload.LiveDeadlineFactor = 3
	c := New(cfg)
	// Every device hangs: no live chunk can complete in real time; the
	// watchdog recovers the executions, and by then the chunks are past
	// their windows.
	for _, h := range c.Hosts {
		for _, v := range h.VCUs {
			v.InjectFault(vcu.FaultHang, 0)
		}
	}
	done := 0
	g := BuildGraph(specForArrival(workload.Arrival{ID: 1, Class: workload.ArriveLive}), 10)
	g.OnDone = func(*Graph) { done++ }
	c.Submit(g)
	c.Eng.RunUntil(2 * time.Hour)
	if done != 1 {
		t.Fatalf("stream did not continue past dropped chunks; stats %+v", c.Stats)
	}
	cs := c.Stats.Classes[sched.PriorityCritical]
	if cs.DeadlineMissed == 0 {
		t.Fatal("no live chunks were deadline-dropped")
	}
	if cs.SLOMet != 0 {
		t.Fatalf("%d hung live chunks counted as SLO-met", cs.SLOMet)
	}
	if slo := c.Stats.SLOAttainment(sched.PriorityCritical); slo != 0 {
		t.Fatalf("live SLO %.3f on a fully hung cluster", slo)
	}
	for _, s := range g.Steps {
		if s.Kind == StepTranscode && s.State != StepShed {
			t.Fatalf("transcode step %d in state %d, want StepShed", s.ID, s.State)
		}
	}
}

// TestHedgeGuardSuppressesUnderBacklog: with a straggler device and a
// deep backlog, the hedge that PR 4 would have launched is suppressed —
// hedges must not amplify an overload.
func TestHedgeGuardSuppressesUnderBacklog(t *testing.T) {
	cfg := overloadConfig(1)
	cfg.HedgeMultiplier = 2
	cfg.Overload.HedgeBacklog = 8
	c := New(cfg)
	c.Hosts[0].VCUs[0].InjectFaultSpec(vcu.FaultSpec{Mode: vcu.FaultSlow, SlowFactor: 64})
	done := 0
	for i := 0; i < 30; i++ {
		g := BuildGraph(uploadSpec(i), 10)
		g.OnDone = func(*Graph) { done++ }
		c.Submit(g)
	}
	c.Eng.RunUntil(2 * time.Hour)
	if done != 30 {
		t.Fatalf("completed %d/30; stats %+v", done, c.Stats)
	}
	if c.Stats.HedgesSuppressed == 0 {
		t.Fatal("hedge guard never engaged")
	}
}

// TestHedgeGuardOffByDefault: the zero OverloadConfig must leave PR 4's
// hedging exactly as it was.
func TestHedgeGuardOffByDefault(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.HedgeMultiplier = 2
	c := New(cfg)
	c.Hosts[0].VCUs[0].InjectFaultSpec(vcu.FaultSpec{Mode: vcu.FaultSlow, SlowFactor: 64})
	done := 0
	g := BuildGraph(uploadSpec(1), 10)
	g.OnDone = func(*Graph) { done++ }
	c.Submit(g)
	c.Eng.RunUntil(time.Hour)
	if done != 1 || c.Stats.HedgesLaunched == 0 {
		t.Fatalf("hedging regressed with overload disabled: done=%d stats %+v", done, c.Stats)
	}
	if c.Stats.HedgesSuppressed != 0 {
		t.Fatal("hedges suppressed with the guard disabled")
	}
}

// TestBrownoutDegradesAndRestores: sustained backlog walks the cluster
// up the degradation ladder one rung per tick (trim → downshift →
// floor), and the drain walks it back down to full quality.
func TestBrownoutDegradesAndRestores(t *testing.T) {
	cfg := overloadConfig(1)
	cfg.Overload.BrownoutPeriod = 15 * time.Second
	c := New(cfg)
	for i := 0; i < 120; i++ {
		spec := uploadSpec(i)
		spec.Batch = true
		c.Submit(BuildGraph(spec, 10))
	}
	// One rung per tick: after the first tick the level is exactly
	// DegradeTrim, not deeper — the rate limit is half the hysteresis.
	c.Eng.RunUntil(16 * time.Second)
	if lvl := c.DegradeLevel(); lvl != transcode.DegradeTrim {
		t.Fatalf("level %v after one tick, want trim-top", lvl)
	}
	c.Eng.RunUntil(61 * time.Second)
	if lvl := c.DegradeLevel(); lvl != transcode.DegradeFloor {
		t.Fatalf("level %v after four ticks of sustained backlog, want floor", lvl)
	}
	c.Eng.RunUntil(4 * time.Hour)
	if lvl := c.DegradeLevel(); lvl != transcode.DegradeNone {
		t.Fatalf("level %v after drain, want none", lvl)
	}
	st := c.Stats
	if st.Classes[sched.PriorityBatch].Degraded == 0 {
		t.Fatal("no batch steps ran degraded")
	}
	if st.BrownoutUps < 3 || st.BrownoutDowns < 3 {
		t.Fatalf("controller moves ups=%d downs=%d", st.BrownoutUps, st.BrownoutDowns)
	}
}

// TestDegradedRequestShapes pins the request-level degradation levers:
// ascending-order ladders lose their top rung first, the floor keeps
// two rungs, profiles downshift to H.264-class, batch gets the speed
// boost, and the original request is never mutated.
func TestDegradedRequestShapes(t *testing.T) {
	base := &sched.StepRequest{
		InputRes: video.Res1080p, FPS: 30, ChunkFrames: 150,
		Outputs: video.LadderBelow(video.Res1080p), Profile: codec.VP9Class,
	}
	n := len(base.Outputs)
	trim := degradedRequest(base, transcode.DegradeTrim, sched.PriorityNormal)
	if len(trim.Outputs) != n-1 || trim.Profile != codec.VP9Class || trim.SpeedBoost {
		t.Fatalf("trim: %d outputs profile %v boost %v", len(trim.Outputs), trim.Profile, trim.SpeedBoost)
	}
	// The top rung (last element, ascending order) is the one removed.
	if trim.Outputs[len(trim.Outputs)-1] == base.Outputs[n-1] {
		t.Fatal("trim removed the wrong end of the ladder")
	}
	prof := degradedRequest(base, transcode.DegradeProfile, sched.PriorityBatch)
	if prof.Profile != codec.H264Class || !prof.SpeedBoost {
		t.Fatalf("profile level: profile %v boost %v", prof.Profile, prof.SpeedBoost)
	}
	floor := degradedRequest(base, transcode.DegradeFloor, sched.PriorityBatch)
	if len(floor.Outputs) != 2 || floor.Outputs[0] != base.Outputs[0] {
		t.Fatalf("floor kept %d rungs starting at %v", len(floor.Outputs), floor.Outputs[0])
	}
	if len(base.Outputs) != n || base.Profile != codec.VP9Class || base.SpeedBoost {
		t.Fatal("degradedRequest mutated the original request")
	}
	// A degraded request costs less than the full one: degradation
	// frees real capacity, it is not cosmetic.
	model := sched.NewVCUCostModel(vcu.DefaultParams())
	full, cheap := model(base), model(floor)
	if cheap[sched.DimEncodeMillicores] >= full[sched.DimEncodeMillicores] {
		t.Fatalf("floor encode cost %d not below full %d",
			cheap[sched.DimEncodeMillicores], full[sched.DimEncodeMillicores])
	}
}

// TestRebalanceIgnoresBackoffParkedSteps is the satellite regression
// test: steps parked in retry backoff sit in the queue but are not
// demand, so the pool rebalancer must not move workers toward them —
// and must move once they become eligible.
func TestRebalanceIgnoresBackoffParkedSteps(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.EnablePools = true
	cfg.LiveShare = 0.5
	cfg.RebalancePeriod = time.Hour // driven manually below
	c := New(cfg)
	g := BuildGraph(uploadSpec(1), 10)
	g.remain = len(g.Steps)
	for _, s := range g.Steps {
		s.graph = g
	}
	s := g.Steps[0] // an upload-pool transcode step
	c.requeueAfter(s, time.Minute)
	if c.TranscodeBacklog() != 1 {
		t.Fatalf("parked step not in queue: backlog %d", c.TranscodeBacklog())
	}
	c.rebalancePools()
	if c.Stats.PoolRebalances != 0 {
		t.Fatalf("%d spurious rebalances toward a backoff-parked step", c.Stats.PoolRebalances)
	}
	// Once eligible, the same queued step is demand and pulls a worker.
	s.eligibleAt = 0
	c.rebalancePools()
	if c.Stats.PoolRebalances == 0 {
		t.Fatal("eligible backlog did not trigger a rebalance")
	}
}

// TestRegionShedsBatchToProtectLive is the region-level satellite: a
// region that loses one cluster to a crash keeps live SLO attainment
// above the floor by routing around the loss and shedding batch in the
// survivors.
func TestRegionShedsBatchToProtectLive(t *testing.T) {
	cfg := overloadConfig(1)
	cfg.Overload = DefaultOverloadConfig()
	cfg.Overload.MaxQueueLen = 24
	cfg.RepairLatency = 0 // the lost cluster stays lost
	r := NewRegion(cfg, 3)
	// The whole of cluster 0 (a single host) crashes early in the run.
	r.Eng.Schedule(2*time.Minute, func() { r.Clusters[0].CrashHost(0) })
	var done [3]int
	arr := workload.GenerateArrivals(workload.ArrivalConfig{
		Seed: 5, Horizon: time.Hour, BaseRatePerHour: 4500,
		DiurnalPeriod: 24 * time.Hour, LiveShare: 0.3, BatchShare: 0.4,
	})
	for i, a := range arr {
		a := a
		home := i % len(r.Clusters)
		g := BuildGraph(specForArrival(a), cfg.StepTargetSeconds)
		g.OnDone = func(*Graph) { done[a.Class]++ }
		r.Eng.Schedule(a.At, func() { _ = r.Submit(home, g) })
	}
	r.Eng.RunUntil(4 * time.Hour)
	st := r.Stats()
	if slo := st.SLOAttainment(sched.PriorityCritical); slo < 0.95 {
		t.Fatalf("region live SLO %.3f < 0.95 after losing a cluster; classes %+v", slo, st.Classes)
	}
	if st.Classes[sched.PriorityBatch].Shed == 0 {
		t.Fatal("survivors shed no batch despite absorbing a dead cluster's load")
	}
	if r.Overflowed == 0 {
		t.Fatal("no videos were routed away from the dead cluster")
	}
	t.Logf("region: live SLO=%.3f overflowed=%d batch shed=%d done=%v",
		st.SLOAttainment(sched.PriorityCritical), r.Overflowed,
		st.Classes[sched.PriorityBatch].Shed, done)
}

// TestOverloadDisabledIsTransparent: the zero OverloadConfig changes
// nothing — every video completes exactly as before, nothing is shed,
// degraded or dropped.
func TestOverloadDisabledIsTransparent(t *testing.T) {
	c := New(DefaultConfig(1))
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
	st := c.Stats
	if st.GraphsShed != 0 || st.BrownoutUps != 0 || st.HedgesSuppressed != 0 {
		t.Fatalf("overload mechanisms fired while disabled: %+v", st)
	}
	for p := 0; p < 3; p++ {
		if st.Classes[p].Shed != 0 || st.Classes[p].Degraded != 0 || st.Classes[p].DeadlineMissed != 0 {
			t.Fatalf("class %d shows overload activity while disabled: %+v", p, st.Classes[p])
		}
	}
}
