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

// refusalProbe checks every answer given without a walk — a resumed
// pass's for a step it leaves unvisited — against the workers
// themselves: it asks first-fit's question of each worker without
// reserving, and fails the test if one has room. It also counts the
// questions, unvisited or walked, and the passes, the resumed ones and
// the steps they visited.
type refusalProbe struct {
	t                        *testing.T
	unvisited, walks         int
	passes, resumed, visited int
}

func (p *refusalProbe) arm(c *Cluster) {
	c.passProbe = func(resumed bool, visited int) {
		p.passes++
		p.visited += visited
		if resumed {
			p.resumed++
		}
	}
	c.placeProbe = func(s *Step, need sched.Resources, avoidVCU int, unvisited bool) {
		if !unvisited {
			p.walks++
			return
		}
		p.unvisited++
		cls, pool := c.classOf(s), stepPool(s)
		for _, cw := range c.workers {
			if !c.places(cw, cls, pool) || s.triedVCUs[cw.vcu.ID] || cw.vcu.ID == avoidVCU {
				continue
			}
			if cw.sw.CanReserve(need) {
				p.t.Fatalf("t=%v: unvisited step %d of video %d (%v, %v pool, need %v), but VCU %d has %v available",
					c.Eng.Now(), s.ID, s.graph.ID, cls, pool, need, cw.vcu.ID, cw.sw.Available())
			}
		}
	}
}

// scenarioProbe, when set, is armed on every cluster the game-day
// scenario helpers build.
var scenarioProbe *refusalProbe

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
// a full rescan walks for every one — and every answer a resumed pass
// gave in its place, by leaving a step unvisited, is checked against
// the workers.
func TestMemoAnswersSaturatedDispatch(t *testing.T) {
	p := &refusalProbe{t: t}
	c := parkOverload(1, 10*time.Minute, nil, p.arm, nil)
	t.Logf("%d placement questions: %d walked the workers, a resumed pass answered %d unvisited; %d steps completed, %d shed",
		p.unvisited+p.walks, p.walks, p.unvisited, c.Stats.StepsCompleted,
		c.Stats.Classes[0].Shed+c.Stats.Classes[1].Shed+c.Stats.Classes[2].Shed)
	t.Logf("%d passes, %d resumed; %d steps visited", p.passes, p.resumed, p.visited)
	if c.Stats.StepsCompleted == 0 || c.QueueLen() != 0 {
		t.Fatalf("run did not drain: %d completed, %d queued", c.Stats.StepsCompleted, c.QueueLen())
	}
	if 100*p.walks > p.unvisited+p.walks {
		t.Fatalf("first-fit walked the workers for %d of %d questions, want under a hundredth", p.walks, p.unvisited+p.walks)
	}
}

// TestMemoKeepsFirstFitsAnswer runs saturated parks once as shipped and
// once with the resumed pass starved — every step carries a tried mark
// for a device that does not exist, which excludes no worker and makes
// every pass a full one that walks (passRecord) — and wants identical
// Stats, affinity overflows included, and as many placement questions:
// the ring park (ringPark) at seed 2, and park_overload at seeds 1-3.
func TestMemoKeepsFirstFitsAnswer(t *testing.T) {
	starve := func(g *Graph) {
		for _, s := range g.Steps {
			s.tried(-1)
		}
	}
	for _, tc := range []struct {
		name string
		ring bool
		run  func(arm func(*Cluster), prep func(*Graph)) *Cluster
	}{
		{"ring park, seed 2", true, func(arm func(*Cluster), prep func(*Graph)) *Cluster { return ringPark(2, arm, prep) }},
		{"park_overload, seed 1", false, func(arm func(*Cluster), prep func(*Graph)) *Cluster {
			return parkOverload(1, 10*time.Minute, nil, arm, prep)
		}},
		{"park_overload, seed 2", false, func(arm func(*Cluster), prep func(*Graph)) *Cluster {
			return parkOverload(2, 10*time.Minute, nil, arm, prep)
		}},
		{"park_overload, seed 3", false, func(arm func(*Cluster), prep func(*Graph)) *Cluster {
			return parkOverload(3, 10*time.Minute, nil, arm, prep)
		}},
	} {
		with := &refusalProbe{t: t}
		got := tc.run(with.arm, nil).Stats
		without := &refusalProbe{t: t}
		want := tc.run(without.arm, starve).Stats
		t.Logf("%s: resumed passes answered %d of %d questions unvisited; %d of %d passes resumed; %d affinity overflows, %d pool moves, %d hedges launched, %d suppressed",
			tc.name, with.unvisited, with.unvisited+with.walks, with.resumed, with.passes,
			got.AffinityOverflows, got.PoolRebalances, got.HedgesLaunched, got.HedgesSuppressed)
		if without.unvisited != 0 {
			t.Fatalf("%s: reference run: %d questions answered without a walk, want 0", tc.name, without.unvisited)
		}
		if with.unvisited == 0 || with.resumed == 0 || tc.ring && (got.AffinityOverflows == 0 || got.PoolRebalances == 0 || got.HedgesLaunched == 0) {
			t.Fatalf("%s: run exercises too little", tc.name)
		}
		if with.unvisited+with.walks != without.walks {
			t.Errorf("%s: %d placement questions as shipped, %d starved", tc.name, with.unvisited+with.walks, without.walks)
		}
		if got != want {
			t.Errorf("%s: Stats differ\n as shipped %+v\n starved    %+v", tc.name, got, want)
		}
	}
}

// TestReleaseInsidePassReopensFirstFit: a reservation released while a
// dispatch pass runs names its worker as given room, so a step a resumed
// pass left unvisited earlier in the same dispatch call is asked of
// first-fit again and placed. The release is the synchronous one of
// runTranscode's DRAM admission. On its own that release only returns
// what the same step had just reserved, so the test lets go of a
// reservation of its own behind dispatch's back at the same moment;
// only the DRAM path's release names the worker.
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
	c.placeProbe = func(s *Step, _ sched.Resources, _ int, unvisited bool) {
		switch {
		case s == y && len(asked) == 1:
			hold.Release() // room appears, and nothing names the worker
		case s == x && len(asked) == 2:
			w0.vcu.FreeMemory(cfg.Params.DRAMCapacity)
		}
		who := map[*Step]string{x: "big", y: "small"}[s]
		if unvisited {
			who += " (unvisited)"
		}
		asked = append(asked, who)
	}
	// One dispatch call: big left unvisited, small placed and refused
	// DRAM, big walked again and placed, small again.
	c.Submit(gSmall)
	if c.Stats.MemoryExhaustions != 1 || y.Attempts != 1 {
		t.Fatalf("small step: %d DRAM refusals, %d attempts, want 1 and 1", c.Stats.MemoryExhaustions, y.Attempts)
	}
	if x.State != StepRunning {
		t.Errorf("big step is %v after the dispatch call that made room for it, want running", x.State)
	}
	if want := []string{"big (unvisited)", "small", "big", "small"}; !slices.Equal(asked, want) {
		t.Fatalf("first-fit was asked %v, want %v", asked, want)
	}
}

// TestPoolMoveInsidePassReopensFirstFit: a worker the rebalancer moves
// into a pool while a dispatch pass runs is named as given room, so a
// step of that pool a resumed pass left unvisited earlier in the same
// dispatch call is asked of first-fit again and placed on it. The
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
	c.placeProbe = func(s *Step, _ sched.Resources, _ int, unvisited bool) {
		who := map[*Step]string{x: "x", y: "y", z: "z"}[s]
		if unvisited {
			who += " (unvisited)"
		}
		if asked = append(asked, who); len(asked) == 2 {
			c.Submit(graphs[2])
			c.rebalancePools()
		}
	}
	// One dispatch call: x left unvisited; the arrival y asked, the move
	// ahead of its walk, and y placed on the moved worker; then x and the
	// arrival z walked and placed.
	c.Submit(graphs[1])
	if c.Stats.PoolRebalances != 1 || live.pool != sched.UseUpload {
		t.Fatalf("%d pool moves, live worker in pool %v: the rebalancer did not move it", c.Stats.PoolRebalances, live.pool)
	}
	for _, s := range []*Step{x, y, z} {
		if s.State != StepRunning {
			t.Errorf("upload step of video %d is %v after the dispatch call that gave its pool a worker, want running", s.graph.ID, s.State)
		}
	}
	if want := []string{"x (unvisited)", "y", "x", "z"}; !slices.Equal(asked, want) {
		t.Fatalf("first-fit was asked %v, want %v", asked, want)
	}
}

// TestRefusedStepWaitsForRoom: on a saturated cluster a refused step is
// not asked of first-fit again until room is made — a repeat dispatch
// with nothing changed walks no worker, an arrival gets the only walk —
// and a release makes first-fit walk it again and place it. A waiting
// live step is dropped by the first dispatch at or after its drop
// deadline plus 1 ns, and by none before: the resumed passes wake for it.
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
	c.placeProbe = func(s *Step, _ sched.Resources, _ int, unvisited bool) {
		asked++
		if !unvisited {
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

	c.release(c.workers[0], holds[0])
	if w := dispatch(c.dispatch); len(w) == 0 || w[0] != u || u.State != StepRunning {
		t.Fatalf("after a release first-fit walked %d steps and the upload step is %v, want it walked first and running", len(w), u.State)
	}
}

// resumeRig is a two-worker cluster for TestResumedPassAsksOnlyWhatChanged:
// its workers are filled by the test's own reservations, the refusal
// probe checks every answer given without a walk, and asked logs each
// first-fit question by step name ("(unvisited)" when nothing walked)
// and each pass's end as "|".
type resumeRig struct {
	t      *testing.T
	c      *Cluster
	names  map[*Step]string
	graphs map[*Step]*Graph
	asked  []string
	before func(s *Step, unvisited bool) // runs ahead of each question, when set
}

func newResumeRig(t *testing.T, tune func(*Config)) *resumeRig {
	cfg := overloadConfig(1) // two workers
	if tune != nil {
		tune(&cfg)
	}
	r := &resumeRig{t: t, c: New(cfg), names: map[*Step]string{}, graphs: map[*Step]*Graph{}}
	p := &refusalProbe{t: t}
	p.arm(r.c)
	check := r.c.placeProbe
	r.c.placeProbe = func(s *Step, need sched.Resources, avoidVCU int, unvisited bool) {
		if r.before != nil {
			r.before(s, unvisited)
		}
		check(s, need, avoidVCU, unvisited)
		name := r.names[s]
		if unvisited {
			name += " (unvisited)"
		}
		r.asked = append(r.asked, name)
	}
	r.c.passProbe = func(bool, int) { r.asked = append(r.asked, "|") }
	return r
}

// hold reserves need on cw behind dispatch's back.
func (r *resumeRig) hold(cw *clusterWorker, need sched.Resources) *sched.Assignment {
	a, err := r.c.scheduler.Schedule(need, func(w *sched.Worker) bool { return w != cw.sw })
	if err != nil {
		r.t.Fatal(err)
	}
	return a
}

// fill holds all of cw's capacity but piece, then piece, and returns the
// reservation of the piece.
func (r *resumeRig) fill(cw *clusterWorker, piece sched.Resources) *sched.Assignment {
	rest := r.c.workerType.Capacity
	rest.Sub(piece)
	r.hold(cw, rest)
	return r.hold(cw, piece)
}

// chunk builds a one-chunk video of spec, named name, and returns its
// transcode step; submit hands its video to the cluster, and bind ties
// its video's steps to it as Submit would, without enqueueing any.
func (r *resumeRig) chunk(name string, spec VideoSpec) *Step {
	spec.Frames = spec.ChunkFrames
	g := BuildGraph(spec, r.c.cfg.StepTargetSeconds)
	r.names[g.Steps[0]], r.graphs[g.Steps[0]] = name, g
	return g.Steps[0]
}

func (r *resumeRig) submit(s *Step) { r.c.Submit(r.graphs[s]) }

func (r *resumeRig) bind(s *Step) {
	g := r.graphs[s]
	g.remain = len(g.Steps)
	for _, st := range g.Steps {
		st.graph = g
	}
}

// do runs f and returns what first-fit was asked meanwhile.
func (r *resumeRig) do(f func()) []string {
	r.asked = nil
	f()
	return r.asked
}

// waiting fails the test unless every step is refused and queued.
func (r *resumeRig) waiting(steps ...*Step) {
	for _, s := range steps {
		if s.State != StepReady || s.blocked == nil {
			r.t.Fatalf("%s is %v, want refused and waiting", r.names[s], s.State)
		}
	}
}

// TestResumedPassAsksOnlyWhatChanged pins what a resumed pass visits on
// a saturated two-worker cluster: (a) after a push, the arrival alone;
// (b) after room on a worker that can take no refused group — too
// little room, or a worker of another pool — nothing; (c) after room
// for one step, the first waiting step in queue order, and no more;
// (d) after an admission eviction from inside the kept prefix, and a
// filter that removes a kept step, the arrivals behind them; (e) room
// made during a pass reopens first-fit for the later steps of the same
// pass. Every answer given without a walk is checked by the refusal
// probe.
func TestResumedPassAsksOnlyWhatChanged(t *testing.T) {
	var tiny sched.Resources
	tiny[0] = 1
	batch := func(id int) VideoSpec {
		return VideoSpec{ID: id, Resolution: video.Res360p, FPS: 30, ChunkFrames: 150,
			Profile: codec.H264Class, Mode: vcu.EncodeTwoPassOffline, Batch: true}
	}
	live := func(id int) VideoSpec {
		return VideoSpec{ID: id, Resolution: video.Res1080p, FPS: 30, ChunkFrames: 150,
			Profile: codec.H264Class, Mode: vcu.EncodeOnePassLowLatency, Live: true}
	}
	// smaller is an upload chunk with less need than uploadSpec's in
	// every dimension: an uploadSpec step's refusal says nothing of it.
	smaller := func(id int) VideoSpec {
		spec := uploadSpec(id)
		spec.Resolution = video.Res720p
		return spec
	}
	want := func(t *testing.T, what string, got []string, want ...string) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: first-fit was asked %v, want %v", what, got, want)
		}
	}

	t.Run("a/push", func(t *testing.T) {
		r := newResumeRig(t, nil)
		r.fill(r.c.workers[0], tiny)
		r.fill(r.c.workers[1], tiny)
		x1, x2 := r.chunk("x1", uploadSpec(1)), r.chunk("x2", smaller(2))
		r.submit(x1)
		r.waiting(x1)
		want(t, "push", r.do(func() { r.submit(x2) }), "x1 (unvisited)", "x2", "|")
		r.waiting(x1, x2)
	})

	t.Run("b/room that fits no group", func(t *testing.T) {
		r := newResumeRig(t, func(cfg *Config) {
			cfg.EnablePools = true
			cfg.LiveShare = 0.5
		})
		liveW, uploadW := r.c.workers[0], r.c.workers[1]
		if liveW.pool != sched.UseLive || uploadW.pool != sched.UseUpload {
			t.Fatalf("pools are %v and %v, want one live and one upload worker", liveW.pool, uploadW.pool)
		}
		x := r.chunk("x", uploadSpec(1))
		need := r.c.workerType.Cost(x.Request)
		onLive := r.fill(liveW, need)
		little := r.fill(uploadW, tiny)
		r.submit(x)
		r.waiting(x)
		want(t, "too little room", r.do(func() {
			r.c.release(uploadW, little)
			r.c.dispatch()
		}), "x (unvisited)", "|")
		want(t, "room in another pool", r.do(func() {
			r.c.release(liveW, onLive)
			r.c.dispatch()
		}), "x (unvisited)", "|")
		if !liveW.sw.Available().Fits(x.blocked.need) {
			t.Fatalf("live worker has %v, want room for %v", liveW.sw.Available(), x.blocked.need)
		}
		r.waiting(x)
	})

	t.Run("c/room for one", func(t *testing.T) {
		r := newResumeRig(t, nil)
		xs := []*Step{r.chunk("x1", uploadSpec(1)), r.chunk("x2", uploadSpec(2)), r.chunk("x3", uploadSpec(3))}
		one := r.fill(r.c.workers[0], r.c.workerType.Cost(xs[0].Request))
		r.fill(r.c.workers[1], tiny)
		for _, x := range xs {
			r.submit(x)
		}
		r.waiting(xs...)
		var visited []int
		r.c.passProbe = func(_ bool, n int) { visited = append(visited, n) }
		want(t, "room for one", r.do(func() {
			r.c.release(r.c.workers[0], one)
			r.c.dispatch()
		}), "x1", "x2 (unvisited)", "x3 (unvisited)")
		if !slices.Equal(visited, []int{1}) {
			t.Fatalf("passes visited %v steps, want one pass visiting 1", visited)
		}
		if xs[0].State != StepRunning {
			t.Fatalf("x1 is %v, want running", xs[0].State)
		}
		r.waiting(xs[1:]...)
	})

	t.Run("d/eviction", func(t *testing.T) {
		r := newResumeRig(t, func(cfg *Config) { cfg.Overload.MaxQueueLen = 2 })
		r.fill(r.c.workers[0], tiny)
		r.fill(r.c.workers[1], tiny)
		b1, b2 := r.chunk("b1", batch(1)), r.chunk("b2", batch(2))
		r.submit(b1)
		r.submit(b2)
		r.waiting(b1, b2)
		// A CPU step of a batch video arrives behind them, past the bound;
		// then an upload step evicts b2, the freshest batch transcode step,
		// from inside the kept prefix.
		side := r.chunk("side", batch(3))
		r.bind(side)
		thumb := r.graphs[side].Steps[1]
		x := r.chunk("x", uploadSpec(4))
		r.bind(x)
		want(t, "eviction", r.do(func() {
			r.c.enqueue(thumb)
			r.c.enqueue(x)
			r.c.dispatch()
		}), "x", "b1 (unvisited)", "|")
		if b2.State != StepShed || thumb.State != StepRunning {
			t.Fatalf("b2 is %v and the CPU arrival %v, want shed and running", b2.State, thumb.State)
		}
		r.waiting(b1, x)
	})

	t.Run("d/filter", func(t *testing.T) {
		r := newResumeRig(t, nil)
		r.fill(r.c.workers[0], tiny)
		r.fill(r.c.workers[1], tiny)
		xs := []*Step{r.chunk("x1", uploadSpec(1)), r.chunk("x2", uploadSpec(2)), r.chunk("x3", uploadSpec(3))}
		for _, x := range xs {
			r.submit(x)
		}
		r.waiting(xs...)
		// A filter (shedding's, the audit recall's) takes x2 out of the
		// middle of the kept prefix.
		r.c.queue.filter(sched.PriorityNormal, func(s *Step) bool { return s != xs[1] })
		x4 := r.chunk("x4", smaller(4))
		want(t, "filter", r.do(func() { r.submit(x4) }), "x1 (unvisited)", "x3 (unvisited)", "x4", "|")
	})

	t.Run("e/room made in the pass", func(t *testing.T) {
		r := newResumeRig(t, func(cfg *Config) {
			cfg.RetryBackoffBase = 0
			cfg.AbortOnFailure = false
		})
		w0 := r.c.workers[0]
		hold := r.hold(w0, r.c.workerType.Capacity)
		r.fill(r.c.workers[1], tiny)
		if err := w0.vcu.AllocMemory(r.c.cfg.Params.DRAMCapacity); err != nil {
			t.Fatal(err)
		}
		x, l := r.chunk("x", uploadSpec(1)), r.chunk("l", live(2))
		r.submit(x)
		r.waiting(x)
		// l is asked first (the live class goes first) and placed on room
		// that appears behind dispatch's back; the device refuses it DRAM,
		// and the release that follows is what lets the same pass walk x.
		r.before = func(s *Step, unvisited bool) {
			switch {
			case s == l && hold != nil:
				hold.Release()
				hold = nil
			case s == x && !unvisited:
				w0.vcu.FreeMemory(r.c.cfg.Params.DRAMCapacity)
			}
		}
		got := r.do(func() { r.submit(l) })
		if len(got) < 3 {
			t.Fatalf("first-fit was asked %v", got)
		}
		want(t, "first pass", got[:3], "l", "x", "|")
		if r.c.Stats.MemoryExhaustions != 1 || x.State != StepRunning {
			t.Fatalf("%d DRAM refusals, x is %v: want 1, and x running", r.c.Stats.MemoryExhaustions, x.State)
		}
	})
}

// TestBlockedDispatchAllocatesNothing: a dispatch pass over a queue full
// of steps that were refused before allocates nothing — not a degraded
// request, not a cost, not a slice — and moves no Stats, whichever way
// it runs. With the record voided it is a full pass: tryPlace walks
// first-fit for every step, with its retry cache, whether or not room
// was made. A resumed pass after room on a worker that fits nothing
// visits no step, and one after an arrival alone walks for the arrival
// only.
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
	var left, walks int
	c.placeProbe = func(_ *Step, _ sched.Resources, _ int, unvisited bool) {
		if unvisited {
			left++
		} else {
			walks++
		}
	}
	w0 := c.workers[0]
	void := func() { c.lastPass.wake = 0 }
	const every = -1
	for _, tc := range []struct {
		name   string
		change func()
		// walksPerCall is how many steps each call walks: every queued
		// one, or a count.
		walksPerCall int
	}{
		{"full pass", void, every},
		{"full pass, room made", func() { c.roomMade(w0); void() }, every},
		{"room on a worker that fits nothing", func() { c.roomMade(w0) }, 0},
		{"an arrival alone", func() { c.queue.kept[sched.PriorityBatch]-- }, 1},
	} {
		before, queued := c.Stats, c.QueueLen()
		left, walks = 0, 0
		calls, ran := 0, 0
		n := testing.AllocsPerRun(20, func() {
			calls++
			tc.change()
			c.dispatch()
			// Only a pass re-attaches the queue, every waiting step kept,
			// and begins after the last room made.
			if c.queue.kept == [numClasses]int{len(c.queue.steps[0]), len(c.queue.steps[1]), len(c.queue.steps[2])} &&
				c.roomStart == len(c.room) && c.lastPass.wake != 0 {
				ran++
			}
		})
		if ran != calls {
			t.Fatalf("%s: %d of %d dispatch calls ran a pass, want all", tc.name, ran, calls)
		}
		if n != 0 {
			t.Errorf("%s: dispatch over %d blocked steps allocates %v times, want 0", tc.name, queued, n)
		}
		if left+walks != calls*queued || c.QueueLen() != queued {
			t.Errorf("%s: %d calls asked %d questions of %d queued steps (%d left), want every call to ask about each", tc.name, calls, left+walks, queued, c.QueueLen())
		}
		perCall := tc.walksPerCall
		if perCall == every {
			perCall = queued
		}
		if walks != calls*perCall {
			t.Errorf("%s: first-fit walked %d times in %d calls, want %d a call", tc.name, walks, calls, perCall)
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
