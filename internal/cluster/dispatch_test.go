package cluster

import (
	"testing"
	"time"

	"openvcu/internal/codec"
	"openvcu/internal/sched"
	"openvcu/internal/transcode"
	"openvcu/internal/vcu"
	"openvcu/internal/video"
	"openvcu/internal/workload"
)

// memoProbe checks every answer the blocked-need memo gives against the
// workers themselves: on a memo hit it asks first-fit's question of each
// worker without reserving, and fails the test if one has room. It also
// counts the questions, by who answered.
type memoProbe struct {
	t           *testing.T
	hits, walks int
}

func (p *memoProbe) arm(c *Cluster) {
	c.placeProbe = func(s *Step, need sched.Resources, avoidVCU int, memo bool) {
		if !memo {
			p.walks++
			return
		}
		p.hits++
		cls, pool := c.classOf(s), stepPool(s)
		for _, cw := range c.workers {
			if !c.places(cw, cls, pool) || s.triedVCUs[cw.vcu.ID] || cw.vcu.ID == avoidVCU {
				continue
			}
			if cw.sw.Phase() == sched.PhaseServing && cw.sw.Available().Fits(need) {
				p.t.Fatalf("t=%v: memo refused step %d of video %d (%v, %v pool, need %v), but VCU %d has %v available",
					c.Eng.Now(), s.ID, s.graph.ID, cls, pool, need, cw.vcu.ID, cw.sw.Available())
			}
		}
	}
}

// scenarioProbe, when set, is armed on every cluster the game-day
// scenario helpers build.
var scenarioProbe *memoProbe

// newScenario is New for the game-day scenario helpers.
func newScenario(cfg Config) *Cluster {
	c := New(cfg)
	if scenarioProbe != nil {
		scenarioProbe.arm(c)
	}
	return c
}

// parkOverload replays the benchmark's park_overload workload
// (benchmark/park.go): twelve small workers with every control loop and
// hedging armed, under diurnal arrivals with a 2× spike that pin the
// queue at its bound (the benchmark's horizon is ten minutes). tune edits
// the configuration, arm sees the cluster before anything is submitted,
// prep every graph.
func parkOverload(seed uint64, horizon time.Duration, tune func(*Config), arm func(*Cluster), prep func(*Graph)) *Cluster {
	cfg := overloadConfig(6)
	cfg.Overload = DefaultOverloadConfig()
	cfg.Autoscale = DefaultAutoscaleConfig()
	cfg.Autoscale.MinWorkers, cfg.Autoscale.InitialWorkers = 2, 3
	cfg.Audit = DefaultAuditConfig()
	cfg.HedgeMultiplier = 3
	cfg.Seed = seed
	if tune != nil {
		tune(&cfg)
	}
	c := New(cfg)
	arm(c)
	for _, a := range workload.GenerateArrivals(workload.ArrivalConfig{
		Seed: seed, Horizon: horizon, BaseRatePerHour: 9000,
		DiurnalAmplitude: 0.3, DiurnalPeriod: time.Hour,
		SpikeStart: 150 * time.Second, SpikeDuration: 150 * time.Second, SpikeFactor: 2,
		LiveShare: 0.3, BatchShare: 0.4,
	}) {
		g := BuildGraph(specForArrival(a), cfg.StepTargetSeconds)
		if prep != nil {
			prep(g)
		}
		c.Eng.Schedule(a.At, func() { c.Submit(g) })
	}
	c.Eng.RunUntil(horizon + 30*time.Minute)
	return c
}

// TestMemoAnswersSaturatedDispatch is the count behind the park_overload
// claim: with the queue pinned at its bound, first-fit walks the workers
// for fewer than a tenth of the placement questions dispatch asks — the
// parent walked for every one — and every answer the memo gave in its
// place is checked against the workers.
func TestMemoAnswersSaturatedDispatch(t *testing.T) {
	p := &memoProbe{t: t}
	c := parkOverload(1, 10*time.Minute, nil, p.arm, nil)
	t.Logf("%d placement questions: %d walked the workers, the memo answered %d; %d steps completed, %d shed",
		p.hits+p.walks, p.walks, p.hits, c.Stats.StepsCompleted,
		c.Stats.Classes[0].Shed+c.Stats.Classes[1].Shed+c.Stats.Classes[2].Shed)
	if c.Stats.StepsCompleted == 0 || c.QueueLen() != 0 {
		t.Fatalf("run did not drain: %d completed, %d queued", c.Stats.StepsCompleted, c.QueueLen())
	}
	if 10*p.walks > p.hits+p.walks {
		t.Fatalf("first-fit walked the workers for %d of %d questions, want under a tenth", p.walks, p.hits+p.walks)
	}
}

// TestMemoKeepsFirstFitsAnswer runs the saturated park with consistent
// hashing, pools and hedging together, once as shipped and once with the
// memo starved — every step carries a tried mark for a device that does
// not exist, which excludes no worker and which the memo never learns
// from — and wants identical Stats, affinity overflows included.
func TestMemoKeepsFirstFitsAnswer(t *testing.T) {
	tune := func(cfg *Config) {
		cfg.ConsistentHashing = true
		cfg.EnablePools = true
		cfg.LiveShare = 0.6
	}
	straggle := func(arm func(*Cluster)) func(*Cluster) {
		return func(c *Cluster) {
			arm(c)
			// A device on each host runs 4x slow: past the hedge delay,
			// inside the watchdog deadline.
			for _, h := range c.Hosts {
				h.VCUs[0].InjectFaultSpec(vcu.FaultSpec{Mode: vcu.FaultSlow, SlowFactor: 4})
			}
		}
	}
	with := &memoProbe{t: t}
	got := parkOverload(2, 5*time.Minute, tune, straggle(with.arm), nil).Stats
	without := &memoProbe{t: t}
	want := parkOverload(2, 5*time.Minute, tune, straggle(without.arm), func(g *Graph) {
		for _, s := range g.Steps {
			s.tried(-1)
		}
	}).Stats
	t.Logf("memo answered %d of %d questions; %d affinity overflows, %d pool moves, %d hedges launched, %d suppressed",
		with.hits, with.hits+with.walks, got.AffinityOverflows, got.PoolRebalances, got.HedgesLaunched, got.HedgesSuppressed)
	if without.hits != 0 {
		t.Fatalf("reference run: the memo answered %d questions, want 0", without.hits)
	}
	if with.hits == 0 || got.AffinityOverflows == 0 || got.PoolRebalances == 0 || got.HedgesLaunched == 0 {
		t.Fatal("run exercises too little")
	}
	if with.hits+with.walks != without.walks {
		t.Errorf("%d placement questions with the memo, %d without", with.hits+with.walks, without.walks)
	}
	if got != want {
		t.Errorf("Stats differ\n with memo    %+v\n without memo %+v", got, want)
	}
}

// TestReleaseInsidePassReopensFirstFit: a reservation released while a
// dispatch pass runs empties the memo, so a step refused earlier in the
// same dispatch call is asked of first-fit again and placed. The release
// is the synchronous one of runTranscode's DRAM admission. On its own
// that release only returns what the same step had just reserved, so the
// test lets go of a reservation of its own behind the memo's back at the
// same moment; only the DRAM path's release tells the memo.
func TestReleaseInsidePassReopensFirstFit(t *testing.T) {
	cfg := overloadConfig(1) // two workers
	cfg.RetryBackoffBase = 0 // a failed step requeues, and re-dispatches, at once
	cfg.AbortOnFailure = false
	c := New(cfg)
	w0 := c.workers[0]
	only := func(cw *clusterWorker) func(*sched.Worker) bool {
		return func(w *sched.Worker) bool { return w != cw.sw }
	}

	big := uploadSpec(1)
	big.Frames = big.ChunkFrames
	gBig := BuildGraph(big, cfg.StepTargetSeconds)
	small := VideoSpec{ID: 2, Resolution: video.Res360p, FPS: 30, Frames: 150, ChunkFrames: 150,
		Profile: codec.H264Class, Mode: vcu.EncodeTwoPassOffline, Batch: true}
	gSmall := BuildGraph(small, cfg.StepTargetSeconds)
	x, y := gBig.Steps[0], gSmall.Steps[0]

	// Worker 1 is full; worker 0 has room for the small step only, and a
	// device with no DRAM left for it.
	if _, err := c.scheduler.Schedule(c.workerType.Capacity, only(c.workers[1])); err != nil {
		t.Fatal(err)
	}
	held := c.workerType.Capacity
	held.Sub(c.workerType.Cost(y.Request))
	hold, err := c.scheduler.Schedule(held, only(w0))
	if err != nil {
		t.Fatal(err)
	}
	if err := w0.vcu.AllocMemory(cfg.Params.DRAMCapacity); err != nil {
		t.Fatal(err)
	}

	c.Submit(gBig)
	if x.State != StepReady || x.blocked == nil {
		t.Fatalf("big step is %v, want blocked in the queue", x.State)
	}
	var asked []string
	c.placeProbe = func(s *Step, _ sched.Resources, _ int, memo bool) {
		switch {
		case s == y && len(asked) == 1:
			hold.Release() // room appears, and nothing tells the memo
		case s == x && len(asked) == 2:
			w0.vcu.FreeMemory(cfg.Params.DRAMCapacity)
		}
		who := map[*Step]string{x: "big", y: "small"}[s]
		if memo {
			who += " (memo)"
		}
		asked = append(asked, who)
	}
	c.Submit(gSmall) // one dispatch call: big refused, small placed and refused DRAM, big again
	if c.Stats.MemoryExhaustions != 1 || y.Attempts != 1 {
		t.Fatalf("small step: %d DRAM refusals, %d attempts, want 1 and 1", c.Stats.MemoryExhaustions, y.Attempts)
	}
	if x.State != StepRunning {
		t.Errorf("big step is %v after the dispatch call that made room for it, want running", x.State)
	}
	want := []string{"big", "small", "big", "small"}
	if len(asked) != len(want) {
		t.Fatalf("first-fit was asked %v, want %v", asked, want)
	}
	for i := range want {
		if asked[i] != want[i] {
			t.Fatalf("first-fit was asked %v, want %v", asked, want)
		}
	}
}

// TestPoolMoveInsidePassReopensFirstFit: a worker the rebalancer moves
// into a pool while a dispatch pass runs empties the memo, so a step of
// that pool refused earlier in the same dispatch call is asked of
// first-fit again and placed on it. The rebalancer's tick cannot fire
// inside a pass on its own, and a pass has the queue detached, so the
// test calls it from the probe behind a Submit that gives it a backlog
// to see.
func TestPoolMoveInsidePassReopensFirstFit(t *testing.T) {
	cfg := overloadConfig(1) // two workers
	cfg.EnablePools = true
	cfg.LiveShare = 0.5
	c := New(cfg)
	live, upload := c.workers[0], c.workers[1]
	if live.pool != sched.UseLive || upload.pool != sched.UseUpload {
		t.Fatalf("pools are %v and %v, want one live and one upload worker", live.pool, upload.pool)
	}
	// The upload pool's one worker is full.
	if _, err := c.scheduler.Schedule(c.workerType.Capacity,
		func(w *sched.Worker) bool { return w != upload.sw }); err != nil {
		t.Fatal(err)
	}
	var graphs [3]*Graph
	for i := range graphs {
		spec := uploadSpec(i + 1)
		spec.Frames = spec.ChunkFrames
		graphs[i] = BuildGraph(spec, cfg.StepTargetSeconds)
	}
	x, y := graphs[0].Steps[0], graphs[1].Steps[0]

	c.Submit(graphs[0])
	if x.State != StepReady || x.blocked == nil {
		t.Fatalf("first upload step is %v, want blocked in the queue", x.State)
	}
	asked := 0
	c.placeProbe = func(s *Step, _ sched.Resources, _ int, memo bool) {
		if asked++; asked == 2 {
			if s != y || !memo {
				t.Fatalf("second question is about step %d (memo %v), want the second upload answered by the memo", s.ID, memo)
			}
			c.Submit(graphs[2])
			c.rebalancePools()
		}
	}
	c.Submit(graphs[1]) // one dispatch call: x refused, y refused by the memo, the move, x again
	if c.Stats.PoolRebalances != 1 || live.pool != sched.UseUpload {
		t.Fatalf("%d pool moves, live worker in pool %v: the rebalancer did not move it", c.Stats.PoolRebalances, live.pool)
	}
	if x.State != StepRunning {
		t.Errorf("first upload step is %v after the dispatch call that gave its pool a worker, want running", x.State)
	}
}

// TestBlockedDispatchAllocatesNothing: a dispatch call over a queue full
// of steps that were refused before, with nothing released since,
// allocates nothing — not a degraded request, not a cost, not a slice.
func TestBlockedDispatchAllocatesNothing(t *testing.T) {
	cfg := overloadConfig(1)
	cfg.Overload = DefaultOverloadConfig()
	c := New(cfg)
	c.degradeLevel = transcode.DegradeFloor // batch and upload retry degraded requests
	for i := 0; i < 60; i++ {
		a := workload.Arrival{ID: i, Class: workload.ArrivalClass(i % 3)}
		c.Submit(BuildGraph(specForArrival(a), cfg.StepTargetSeconds))
	}
	if n := c.TranscodeBacklog(); n < cfg.Overload.MaxQueueLen/2 {
		t.Fatalf("only %d transcode steps queued; the park is not saturated", n)
	}
	var classes int
	for _, steps := range c.queue.steps {
		if len(steps) > 0 {
			classes++
		}
	}
	if classes != numClasses {
		t.Fatalf("%d of %d classes queued", classes, numClasses)
	}
	before := c.Stats
	if n := testing.AllocsPerRun(20, c.dispatch); n != 0 {
		t.Errorf("dispatch over %d blocked steps allocates %v times, want 0", c.QueueLen(), n)
	}
	if c.Stats != before {
		t.Errorf("blocked dispatch moved Stats\n before %+v\n after  %+v", before, c.Stats)
	}
}

// parentVictim is admit's victim search as the single-slice queue did it:
// over the queue in arrival order, the last transcode step of the lowest
// class strictly below cls.
func parentVictim(queue []*Step, cls sched.Priority) *Step {
	var victim *Step
	for _, q := range queue {
		if q.Kind != StepTranscode || q.graph.Priority <= cls {
			continue
		}
		if victim == nil || q.graph.Priority >= victim.graph.Priority {
			victim = q
		}
	}
	return victim
}

// TestAdmitVictimMatchesQueueScan fills a bounded queue with all three
// classes, CPU steps and a backoff-parked step, then admits steps of
// each class until nothing can be evicted, and checks every eviction
// against the single-slice scan it replaced.
func TestAdmitVictimMatchesQueueScan(t *testing.T) {
	cfg := DefaultConfig(0) // no workers: nothing leaves the queue by being placed
	cfg.Overload.MaxQueueLen = 9
	c := New(cfg)
	var flat []*Step
	newStep := func(cls sched.Priority, kind StepKind) *Step {
		g := &Graph{ID: len(flat), Priority: cls}
		s := &Step{Kind: kind, State: StepReady, graph: g}
		g.Steps = []*Step{s}
		return s
	}
	for _, q := range []struct {
		cls  sched.Priority
		kind StepKind
	}{
		{sched.PriorityBatch, StepTranscode}, {sched.PriorityNormal, StepTranscode},
		{sched.PriorityCritical, StepTranscode}, {sched.PriorityBatch, StepThumbnail},
		{sched.PriorityBatch, StepTranscode}, {sched.PriorityNormal, StepTranscode},
		{sched.PriorityBatch, StepTranscode}, {sched.PriorityBatch, StepAssemble},
		{sched.PriorityNormal, StepFingerprint}, {sched.PriorityCritical, StepTranscode},
		{sched.PriorityNormal, StepTranscode}, {sched.PriorityNormal, StepNotify},
		{sched.PriorityCritical, StepTranscode},
	} {
		s := newStep(q.cls, q.kind)
		c.push(s)
		flat = append(flat, s)
	}
	// The freshest batch transcode step is parked in retry backoff.
	flat[6].State, flat[6].eligibleAt = StepFailed, time.Minute
	if c.TranscodeBacklog() != cfg.Overload.MaxQueueLen {
		t.Fatalf("backlog %d, want the bound %d", c.TranscodeBacklog(), cfg.Overload.MaxQueueLen)
	}

	evictions := 0
	for _, cls := range []sched.Priority{sched.PriorityBatch, sched.PriorityNormal, sched.PriorityNormal,
		sched.PriorityCritical, sched.PriorityCritical, sched.PriorityCritical, sched.PriorityCritical,
		sched.PriorityCritical, sched.PriorityCritical, sched.PriorityCritical} {
		in := newStep(cls, StepTranscode)
		want := parentVictim(flat, cls)
		admitted := c.admit(in)
		if admitted != (want != nil) {
			t.Fatalf("admit(%v) = %v, the scan finds victim %v", cls, admitted, want != nil)
		}
		if want == nil {
			if in.State != StepShed {
				t.Fatalf("refused %v step is %v, want shed", cls, in.State)
			}
			continue
		}
		evictions++
		for i, q := range flat {
			if (q.State == StepShed) != (q == want) {
				t.Fatalf("admit(%v): step %d of the queue shed=%v, the scan evicts step of video %d",
					cls, i, q.State == StepShed, want.graph.ID)
			}
		}
		// Take the victim out of the reference and put the admitted step
		// in, as enqueue would.
		for i, q := range flat {
			if q == want {
				flat = append(flat[:i:i], flat[i+1:]...)
				break
			}
		}
		in.State = StepReady
		c.push(in)
		flat = append(flat, in)
		// The per-class slices, concatenated, are the reference filtered
		// by class.
		for cls, steps := range c.queue.steps {
			var ref []*Step
			transcodes := 0
			for _, q := range flat {
				if q.graph.Priority == sched.Priority(cls) {
					ref = append(ref, q)
					if q.Kind == StepTranscode {
						transcodes++
					}
				}
			}
			if len(ref) != len(steps) || transcodes != c.queue.transcodes[cls] {
				t.Fatalf("class %d: %d queued (%d transcode), reference has %d (%d)",
					cls, len(steps), c.queue.transcodes[cls], len(ref), transcodes)
			}
			for i := range ref {
				if ref[i] != steps[i] {
					t.Fatalf("class %d: position %d differs from the reference", cls, i)
				}
			}
		}
	}
	if evictions != 8 {
		t.Fatalf("%d evictions, want 8: the 3 batch steps, then the 5 upload steps", evictions)
	}
}
