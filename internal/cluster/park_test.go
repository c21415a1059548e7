package cluster

import (
	"runtime"
	"testing"
	"time"

	"openvcu/internal/sim"
	"openvcu/internal/vcu"
	"openvcu/internal/workload"
)

// parkSteady builds the benchmark's park_steady workload
// (benchmark/park.go): 2,000 workers on 100 hosts, overload control armed
// but never triggered, flat arrivals of 120,000 videos an hour for
// horizon, every submission scheduled and nothing run yet.
func parkSteady(seed uint64, horizon time.Duration) *Cluster {
	cfg := DefaultConfig(100)
	cfg.Overload = DefaultOverloadConfig()
	cfg.Seed = seed
	c := New(cfg)
	for _, a := range workload.GenerateArrivals(workload.ArrivalConfig{
		Seed: seed, Horizon: horizon, BaseRatePerHour: 120000,
		LiveShare: 0.3, BatchShare: 0.4,
	}) {
		g := BuildGraph(specForArrival(a), cfg.StepTargetSeconds)
		c.Eng.Schedule(a.At, func() { c.Submit(g) })
	}
	return c
}

// BenchmarkParkSteady times one repetition of park_steady at seed 1 as
// the benchmark does: the cluster and its arrivals are built untimed,
// and the timed operation is RunUntil over the five-minute horizon and
// its ten-minute drain. `make profile-park` profiles it.
func BenchmarkParkSteady(b *testing.B) {
	const horizon = 5 * time.Minute
	b.ReportAllocs()
	var steps int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := parkSteady(1, horizon)
		runtime.GC()
		b.StartTimer()
		c.Eng.RunUntil(horizon + 10*time.Minute)
		steps += c.Stats.StepsCompleted
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}

// BenchmarkParkOverload times one repetition of park_overload at seed 1
// the same way: newParkOverload builds the cluster and its arrivals
// untimed, and the timed operation is RunUntil over the ten-minute
// horizon and its thirty-minute drain. `make profile-park` profiles it
// too.
func BenchmarkParkOverload(b *testing.B) {
	const horizon = 10 * time.Minute
	b.ReportAllocs()
	var steps int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := newParkOverload(1, horizon, nil, nil, nil)
		runtime.GC()
		b.StartTimer()
		c.Eng.RunUntil(horizon + 30*time.Minute)
		steps += c.Stats.StepsCompleted
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}

// TestParkStepAllocs holds what recycling execution records and binding
// every callback once buys: past the warm-up, park_steady allocates at
// most five times per completed step. The closure-per-callback
// executions allocated about 25.
func TestParkStepAllocs(t *testing.T) {
	c := parkSteady(1, 2*time.Minute)
	c.Eng.RunUntil(time.Minute) // the free list and the queues grow here
	var before, after runtime.MemStats
	steps := c.Stats.StepsCompleted
	runtime.ReadMemStats(&before)
	c.Eng.RunUntil(2 * time.Minute)
	runtime.ReadMemStats(&after)
	steps = c.Stats.StepsCompleted - steps
	if steps < 10000 {
		t.Fatalf("only %d steps completed in the measured minute", steps)
	}
	perStep := float64(after.Mallocs-before.Mallocs) / float64(steps)
	t.Logf("%.2f allocations per completed step over %d steps", perStep, steps)
	if perStep > 5 {
		t.Errorf("%.2f allocations per completed step, want at most 5", perStep)
	}
}

// TestNoDeadEventsAfterSettle: an execution that finishes stops its
// watchdog, its hedge and its wall-floor gate, and a fluid with nothing
// left to drain stops its timer, so once every graph has finished the
// engine holds the periodic control-loop ticks and nothing else — no
// deadline of an execution that is long over.
func TestNoDeadEventsAfterSettle(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Overload = DefaultOverloadConfig()
	cfg.HedgeMultiplier = 3
	c := New(cfg)
	ticks := c.Eng.Pending() // one per periodic loop, and nothing submitted yet
	const videos = 24
	done, pending := 0, -1
	for i := 0; i < videos; i++ {
		a := workload.Arrival{ID: i, Class: workload.ArrivalClass(i % 3)}
		g := BuildGraph(specForArrival(a), cfg.StepTargetSeconds)
		g.OnDone = func(*Graph) {
			if done++; done == videos {
				pending = c.Eng.Pending()
			}
		}
		c.Eng.Schedule(time.Duration(i)*time.Second, func() { c.Submit(g) })
	}
	c.Eng.RunUntil(time.Hour)
	if done != videos {
		t.Fatalf("%d of %d videos finished", done, videos)
	}
	if c.Stats.Classes[0].Completed == 0 {
		t.Fatal("no live step ran: the wall-floor gate went unexercised")
	}
	if pending != ticks {
		t.Errorf("%d events queued when the last video finished, want the %d periodic ticks", pending, ticks)
	}
}

// TestExecutionRecordsRecycleSafely runs the chaos game-day — hedging,
// every device fault class including hangs, host crashes that void ops
// on cores and abort queued ones — with a probe on the free list: no
// record may be reused while one of its ops is still in flight (Done
// not yet fired, which for a hung op is forever) or one of its timers
// is armed, because a late Done or a timer firing would land on the
// record's next execution.
func TestExecutionRecordsRecycleSafely(t *testing.T) {
	c, _, done := chaosScenario(7, 32, 40, 3, 40*time.Minute)
	reused := 0
	c.execProbe = func(x *execution) {
		reused++
		ops := append([]*vcu.Op{&x.decode}, x.encodes...)
		for i, op := range ops {
			if op.InFlight() {
				t.Fatalf("t=%v: record reused while its op %d (of %d) is in flight", c.Eng.Now(), i, len(ops))
			}
		}
		for name, tm := range map[string]*sim.Timer{"watchdog": &x.watchdog, "hedge": &x.hedge, "floor": &x.floor} {
			if tm.Armed() {
				t.Fatalf("t=%v: record reused while its %s timer is armed", c.Eng.Now(), name)
			}
		}
	}
	c.Eng.RunUntil(6 * time.Hour)
	var hung int64
	for _, h := range c.Hosts {
		for _, v := range h.VCUs {
			hung += v.Telemetry.OpsHung
		}
	}
	st := c.Stats
	t.Logf("%d records reused; %d ops hung, %d hedges, %d host crashes, failures %+v",
		reused, hung, st.HedgesLaunched, st.HostsCrashed, st.Failures)
	if *done != 32 {
		t.Fatalf("%d of 32 videos finished", *done)
	}
	if reused == 0 || hung == 0 || st.HedgesLaunched == 0 || st.Failures.Crash == 0 ||
		st.Failures.Aborted == 0 || st.Failures.Deadline == 0 {
		t.Fatal("the run misses a hazard: reuse, a hung op, a hedge, a host crash, an abort or a deadline")
	}
}
