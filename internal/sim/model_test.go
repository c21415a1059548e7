package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// clock is what the model test's workload needs of an engine, so the
// same workload drives the Engine and the reference.
type clock interface {
	Now() time.Duration
	Schedule(delay time.Duration, fn func())
	Reset(t *Timer, delay time.Duration)
	Stop(t *Timer)
	RunUntil(deadline time.Duration)
	Pending() int
}

// refEngine is the specification of Engine: an unordered bag of events,
// the next one found by sorting on (at, seq). A timer is a bag entry
// that Stop takes out and Reset replaces with a fresh one, fresh seq
// included.
type refEngine struct {
	now    time.Duration
	seq    int64
	events []event
}

func (r *refEngine) Now() time.Duration { return r.now }
func (r *refEngine) Pending() int       { return len(r.events) }

func (r *refEngine) Schedule(delay time.Duration, fn func()) { r.add(delay, fn, nil) }

func (r *refEngine) add(delay time.Duration, fn func(), t *Timer) {
	if delay < 0 {
		delay = 0
	}
	r.seq++
	r.events = append(r.events, event{at: r.now + delay, seq: r.seq, fn: fn, t: t})
}

func (r *refEngine) Reset(t *Timer, delay time.Duration) {
	r.Stop(t)
	r.add(delay, t.fn, t)
}

func (r *refEngine) Stop(t *Timer) {
	for i, ev := range r.events {
		if ev.t == t {
			r.events = append(r.events[:i], r.events[i+1:]...)
			return
		}
	}
}

func (r *refEngine) RunUntil(deadline time.Duration) {
	for len(r.events) > 0 {
		sort.Slice(r.events, func(i, j int) bool {
			a, b := r.events[i], r.events[j]
			return a.at < b.at || a.at == b.at && a.seq < b.seq
		})
		ev := r.events[0]
		if ev.at > deadline {
			break
		}
		r.events = r.events[1:]
		r.now = ev.at
		ev.fn()
	}
	if r.now < deadline {
		r.now = deadline
	}
}

// firing is one executed event: which, and at what virtual time.
type firing struct {
	id int
	at time.Duration
}

// modelDelays are coarse on purpose: many events share an instant, and
// a zero delay from inside an event lands on the running instant.
var modelDelays = []time.Duration{-time.Second, 0, 0, time.Second, time.Second, 2 * time.Second, 7 * time.Second}

// modelTimers is how many timers the workload moves around.
const modelTimers = 3

// driveModel runs one seeded operation sequence on c and returns the
// firings. Events spawn children, and re-arm or stop timers, as a
// function of their own id; a timer re-arms itself from its own
// function on every other firing. So the workload is the same on any
// engine that runs them at all.
func driveModel(c clock, seed int64) []firing {
	rng := rand.New(rand.NewSource(seed))
	var log []firing
	var timers [modelTimers]Timer
	var fires [modelTimers]int
	for k := range timers {
		timers[k].Bind(func() {
			log = append(log, firing{1000 + k, c.Now()})
			if fires[k]++; fires[k]%2 == 1 {
				c.Reset(&timers[k], modelDelays[(fires[k]+k)%len(modelDelays)])
			}
		})
	}
	next := 0
	var spawn func(depth int, delay time.Duration)
	spawn = func(depth int, delay time.Duration) {
		id := next
		next++
		c.Schedule(delay, func() {
			log = append(log, firing{id, c.Now()})
			switch id % 7 {
			case 4:
				c.Reset(&timers[id%modelTimers], modelDelays[id%len(modelDelays)])
			case 6:
				c.Stop(&timers[id%modelTimers])
			}
			if depth >= 3 {
				return
			}
			for k := 0; k < id%3; k++ {
				spawn(depth+1, modelDelays[(id+k)%len(modelDelays)])
			}
		})
	}
	for op := 0; op < 80; op++ {
		switch rng.Intn(8) {
		case 0, 1:
			c.RunUntil(c.Now() + modelDelays[rng.Intn(len(modelDelays))])
		case 2:
			c.Reset(&timers[rng.Intn(modelTimers)], modelDelays[rng.Intn(len(modelDelays))])
		case 3:
			c.Stop(&timers[rng.Intn(modelTimers)])
		default:
			spawn(0, modelDelays[rng.Intn(len(modelDelays))])
		}
	}
	log = append(log, firing{-1, c.Now()}) // where the clock stood before the drain
	log = append(log, firing{-2, time.Duration(c.Pending())})
	for k := range timers {
		c.Stop(&timers[k]) // self-re-arming timers would never drain
	}
	c.RunUntil(time.Hour)
	return log
}

// timerCoverage is an Engine that counts the timer cases the model test
// must reach: Reset of a queued timer to an earlier instant, to a later
// one and to the one it already had, Reset of an idle timer (first arm,
// or re-arm from its own function), and Stop of an idle timer.
type timerCoverage struct {
	*Engine
	earlier, later, same, idleReset, idleStop int
}

func (e *timerCoverage) Reset(t *Timer, delay time.Duration) {
	switch at := e.Now() + max(delay, 0); {
	case !t.Armed():
		e.idleReset++
	case at < e.pq[t.pos-1].at:
		e.earlier++
	case at > e.pq[t.pos-1].at:
		e.later++
	default:
		e.same++
	}
	e.Engine.Reset(t, delay)
}

func (e *timerCoverage) Stop(t *Timer) {
	if !t.Armed() {
		e.idleStop++
	}
	e.Engine.Stop(t)
}

// TestEngineMatchesSortModel checks the value heap against the sort-based
// reference over seeded random sequences of Schedule, Reset, Stop and
// RunUntil, with same-instant ties, events scheduled from inside events
// and timers re-armed from their own functions: same events, same order,
// same clock, and every timer left armed is still queued.
func TestEngineMatchesSortModel(t *testing.T) {
	cov := &timerCoverage{}
	timerFirings := 0
	for seed := int64(1); seed <= 50; seed++ {
		cov.Engine = NewEngine()
		got := driveModel(cov, seed)
		want := driveModel(&refEngine{}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d firings, reference has %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d is %+v, reference has %+v", seed, i, got[i], want[i])
			}
			if got[i].id >= 1000 {
				timerFirings++
			}
		}
		if len(got) < 40 {
			t.Fatalf("seed %d: only %d firings; the workload is not exercising the heap", seed, len(got))
		}
	}
	t.Logf("timer firings %d; Reset of a queued timer: %d earlier, %d later, %d same instant; Reset of an idle timer %d; Stop of an idle timer %d",
		timerFirings, cov.earlier, cov.later, cov.same, cov.idleReset, cov.idleStop)
	if timerFirings == 0 || cov.earlier == 0 || cov.later == 0 || cov.same == 0 || cov.idleReset == 0 || cov.idleStop == 0 {
		t.Fatal("the workload misses a timer case")
	}
}

// TestScheduleDoesNotAllocate pins the point of holding events by value:
// once the heap's slice has grown, scheduling and running an event, and
// moving, stopping and firing a timer, allocate nothing.
func TestScheduleDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	var timers [16]Timer
	for i := range timers {
		timers[i].Bind(fn)
	}
	round := func() {
		for i := 0; i < 64; i++ {
			e.Schedule(time.Duration(64-i), fn)
		}
		for i := range timers {
			e.Reset(&timers[i], time.Duration(i))
			e.Reset(&timers[i], time.Duration(32-i))
			if i%4 == 0 {
				e.Stop(&timers[i])
			}
		}
		e.Run()
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("%v allocations per 64 events and 16 timers, want 0", n)
	}
}
