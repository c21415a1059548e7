package cluster

import (
	"slices"
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

// newParkOverload builds the benchmark's park_overload workload
// (benchmark/park.go): twelve small workers with every control loop and
// hedging armed, under diurnal arrivals with a 2× spike that pin the
// queue at its bound (the benchmark's horizon is ten minutes), every
// submission scheduled and nothing run yet. tune edits the
// configuration, arm sees the cluster before anything is submitted, prep
// every graph; each may be nil.
func newParkOverload(seed uint64, horizon time.Duration, tune func(*Config), arm func(*Cluster), prep func(*Graph)) *Cluster {
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
	if arm != nil {
		arm(c)
	}
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
	return c
}

// parkOverload runs newParkOverload's park through its horizon and a
// thirty-minute drain, as the benchmark does.
func parkOverload(seed uint64, horizon time.Duration, tune func(*Config), arm func(*Cluster), prep func(*Graph)) *Cluster {
	c := newParkOverload(seed, horizon, tune, arm, prep)
	c.Eng.RunUntil(horizon + 30*time.Minute)
	return c
}

// ringPark runs the saturated park for five minutes with consistent
// hashing, pools and hedging together, and one device on each host
// running 4x slow: past the hedge delay, inside the watchdog deadline.
// arm and prep are parkOverload's.
func ringPark(seed uint64, arm func(*Cluster), prep func(*Graph)) *Cluster {
	tune := func(cfg *Config) {
		cfg.ConsistentHashing = true
		cfg.EnablePools = true
		cfg.LiveShare = 0.6
	}
	straggle := func(c *Cluster) {
		arm(c)
		for _, h := range c.Hosts {
			h.VCUs[0].InjectFaultSpec(vcu.FaultSpec{Mode: vcu.FaultSlow, SlowFactor: 4})
		}
	}
	return parkOverload(seed, 5*time.Minute, tune, straggle, prep)
}

// TestMemoAnswersSaturatedDispatch is the count behind the park_overload
// claim: with the queue pinned at its bound, first-fit walks the workers
// for fewer than a hundredth of the placement questions dispatch asks —
// a memo emptied on every dispatch call left 2.2 % to walk, a full
// rescan every one — and every answer the memo or a skipped pass gave
// in its place is checked against the workers.
func TestMemoAnswersSaturatedDispatch(t *testing.T) {
	p := &memoProbe{t: t}
	c := parkOverload(1, 10*time.Minute, nil, p.arm, nil)
	t.Logf("%d placement questions: %d walked the workers, the memo or a skipped pass answered %d; %d steps completed, %d shed",
		p.hits+p.walks, p.walks, p.hits, c.Stats.StepsCompleted,
		c.Stats.Classes[0].Shed+c.Stats.Classes[1].Shed+c.Stats.Classes[2].Shed)
	if c.Stats.StepsCompleted == 0 || c.QueueLen() != 0 {
		t.Fatalf("run did not drain: %d completed, %d queued", c.Stats.StepsCompleted, c.QueueLen())
	}
	if 100*p.walks > p.hits+p.walks {
		t.Fatalf("first-fit walked the workers for %d of %d questions, want under a hundredth", p.walks, p.hits+p.walks)
	}
}

// TestMemoKeepsFirstFitsAnswer runs the ring park (ringPark) once as
// shipped and once with the memo starved — every step carries a tried
// mark for a device that does not exist, which excludes no worker and
// which the memo never learns from — and wants identical Stats, affinity
// overflows included.
func TestMemoKeepsFirstFitsAnswer(t *testing.T) {
	with := &memoProbe{t: t}
	got := ringPark(2, with.arm, nil).Stats
	without := &memoProbe{t: t}
	want := ringPark(2, without.arm, func(g *Graph) {
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
// dispatch pass runs empties the memo, so a step the memo answered for
// earlier in the same dispatch call is asked of first-fit again and
// placed. The release is the synchronous one of
// runTranscode's DRAM admission. On its own that release only returns
// what the same step had just reserved, so the test lets go of a
// reservation of its own behind the memo's back at the same moment;
// only the DRAM path's release tells the memo.
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
	// One dispatch call: big answered by the memo, small placed and refused
	// DRAM, big walked again and placed, small again.
	c.Submit(gSmall)
	if c.Stats.MemoryExhaustions != 1 || y.Attempts != 1 {
		t.Fatalf("small step: %d DRAM refusals, %d attempts, want 1 and 1", c.Stats.MemoryExhaustions, y.Attempts)
	}
	if x.State != StepRunning {
		t.Errorf("big step is %v after the dispatch call that made room for it, want running", x.State)
	}
	if want := []string{"big (memo)", "small", "big", "small"}; !slices.Equal(asked, want) {
		t.Fatalf("first-fit was asked %v, want %v", asked, want)
	}
}

// TestPoolMoveInsidePassReopensFirstFit: a worker the rebalancer moves
// into a pool while a dispatch pass runs empties the memo, so a step of
// that pool the memo answered for earlier in the same dispatch call is
// asked of first-fit again and placed on it. The
// rebalancer's tick cannot fire inside a pass on its own, and a pass has
// the queue detached, so the test calls it from the probe behind a
// Submit that gives it a backlog to see.
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
	x, y, z := graphs[0].Steps[0], graphs[1].Steps[0], graphs[2].Steps[0]

	c.Submit(graphs[0])
	if x.State != StepReady || x.blocked == nil {
		t.Fatalf("first upload step is %v, want blocked in the queue", x.State)
	}
	var asked []string
	c.placeProbe = func(s *Step, _ sched.Resources, _ int, memo bool) {
		who := map[*Step]string{x: "x", y: "y", z: "z"}[s]
		if memo {
			who += " (memo)"
		}
		if asked = append(asked, who); len(asked) == 2 {
			c.Submit(graphs[2])
			c.rebalancePools()
		}
	}
	// One dispatch call: x and y answered by the memo, the move, then x,
	// y and the arrival z walked and placed.
	c.Submit(graphs[1])
	if c.Stats.PoolRebalances != 1 || live.pool != sched.UseUpload {
		t.Fatalf("%d pool moves, live worker in pool %v: the rebalancer did not move it", c.Stats.PoolRebalances, live.pool)
	}
	for _, s := range []*Step{x, y, z} {
		if s.State != StepRunning {
			t.Errorf("upload step of video %d is %v after the dispatch call that gave its pool a worker, want running", s.graph.ID, s.State)
		}
	}
	if want := []string{"x (memo)", "y (memo)", "x", "y", "z"}; !slices.Equal(asked, want) {
		t.Fatalf("first-fit was asked %v, want %v", asked, want)
	}
}

// TestRefusedStepWaitsForRoom: on a saturated cluster a refused step is
// not asked of first-fit again until room is made — a repeat dispatch
// with nothing changed walks no worker, an arrival gets the only walk —
// and a release makes first-fit walk it again and place it. A waiting
// live step is dropped by the first dispatch at or after its drop
// deadline plus 1 ns, and by none before: the skipped passes wake for it.
func TestRefusedStepWaitsForRoom(t *testing.T) {
	cfg := overloadConfig(1) // two workers
	cfg.Overload.LiveDeadlineFactor = 3
	c := New(cfg)
	var holds []*sched.Assignment
	for _, cw := range c.workers {
		a, err := c.scheduler.Schedule(c.workerType.Capacity, func(w *sched.Worker) bool { return w != cw.sw })
		if err != nil {
			t.Fatal(err)
		}
		holds = append(holds, a)
	}
	var walked []*Step
	asked := 0
	c.placeProbe = func(s *Step, _ sched.Resources, _ int, memo bool) {
		asked++
		if !memo {
			walked = append(walked, s)
		}
	}
	dispatch := func(do func()) []*Step {
		walked, asked = nil, 0
		do()
		return walked
	}
	chunk := func(spec VideoSpec) *Step {
		spec.Frames = spec.ChunkFrames
		g := BuildGraph(spec, cfg.StepTargetSeconds)
		c.Submit(g)
		return g.Steps[0]
	}

	u := chunk(uploadSpec(1))
	l := chunk(VideoSpec{ID: 2, Resolution: video.Res1080p, FPS: 30, ChunkFrames: 150,
		Profile: codec.H264Class, Mode: vcu.EncodeOnePassLowLatency, Live: true})
	for _, s := range []*Step{u, l} {
		if s.State != StepReady || s.blocked == nil {
			t.Fatalf("step of video %d is %v, want refused and waiting", s.graph.ID, s.State)
		}
	}
	if w := dispatch(c.dispatch); len(w) != 0 || asked != 2 {
		t.Fatalf("repeat dispatch walked %d steps and answered %d questions, want 0 walks for 2 questions", len(w), asked)
	}
	var b *Step
	if w := dispatch(func() {
		b = chunk(VideoSpec{ID: 3, Resolution: video.Res360p, FPS: 30, ChunkFrames: 150,
			Profile: codec.H264Class, Mode: vcu.EncodeTwoPassOffline, Batch: true})
	}); len(w) != 1 || w[0] != b {
		t.Fatalf("dispatch after an arrival walked %d steps, want the arrival alone", len(w))
	}

	// Admitted at 0 with a 5 s chunk and a 15 s window: dispatched after
	// 10 s, the chunk could only finish late.
	const deadline = 10 * time.Second
	if d, ok := c.dropDeadline(l); !ok || d != deadline {
		t.Fatalf("drop deadline %v (%v), want %v", d, ok, deadline)
	}
	c.Eng.RunUntil(deadline)
	if w := dispatch(c.dispatch); l.State != StepReady || len(w) != 0 {
		t.Fatalf("at the deadline the live step is %v after %d walks, want waiting after none", l.State, len(w))
	}
	c.Eng.RunUntil(deadline + 1)
	if c.dispatch(); l.State != StepShed || c.Stats.Classes[sched.PriorityCritical].DeadlineMissed != 1 {
		t.Fatalf("1 ns past the deadline the live step is %v, want dropped", l.State)
	}

	c.release(holds[0])
	if w := dispatch(c.dispatch); len(w) == 0 || w[0] != u || u.State != StepRunning {
		t.Fatalf("after a release first-fit walked %d steps and the upload step is %v, want it walked first and running", len(w), u.State)
	}
}

// TestBlockedDispatchAllocatesNothing: a dispatch pass over a queue full
// of steps that were refused before allocates nothing — not a degraded
// request, not a cost, not a slice — and moves no Stats. Each measured
// call runs a pass, never a skipped one: a push marks the queue fresh
// (every step answered by refused from the memo), a new room epoch
// keeps the memo (the same, with the pass record void), or room is
// made (the memo empties, tryPlace walks first-fit with its retry
// cache, and place's memo answers the rest).
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
	var hits, walks int
	c.placeProbe = func(_ *Step, _ sched.Resources, _ int, memo bool) {
		if memo {
			hits++
		} else {
			walks++
		}
	}
	for _, tc := range []struct {
		name     string
		change   func()
		memoOnly bool
	}{
		{"push", func() { c.queue.fresh = true }, true},
		{"room epoch", func() { c.roomEpoch++ }, true},
		{"room made", c.roomMade, false},
	} {
		before, queued := c.Stats, c.QueueLen()
		hits, walks = 0, 0
		calls, ran := 0, 0
		n := testing.AllocsPerRun(20, func() {
			calls++
			tc.change()
			c.dispatch()
			// Only a pass that ran detaches the queue and records its epoch.
			if !c.queue.fresh && c.lastPass.epoch == c.roomEpoch {
				ran++
			}
		})
		if ran != calls {
			t.Fatalf("%s: %d of %d dispatch calls ran a pass, want all", tc.name, ran, calls)
		}
		if n != 0 {
			t.Errorf("%s: dispatch over %d blocked steps allocates %v times, want 0", tc.name, queued, n)
		}
		if hits+walks != calls*queued || c.QueueLen() != queued {
			t.Errorf("%s: %d calls asked %d questions of %d queued steps (%d left), want every call to ask about each", tc.name, calls, hits+walks, queued, c.QueueLen())
		}
		if tc.memoOnly && walks != 0 || !tc.memoOnly && walks == 0 {
			t.Errorf("%s: first-fit walked %d times, want memo only %v", tc.name, walks, tc.memoOnly)
		}
		if c.Stats != before {
			t.Errorf("%s: blocked dispatch moved Stats\n before %+v\n after  %+v", tc.name, before, c.Stats)
		}
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
