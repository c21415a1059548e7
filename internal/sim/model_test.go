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
	RunUntil(deadline time.Duration)
	Pending() int
}

// refEngine is the specification of Engine: an unordered bag of events,
// the next one found by sorting on (at, seq).
type refEngine struct {
	now    time.Duration
	seq    int64
	events []event
}

func (r *refEngine) Now() time.Duration { return r.now }
func (r *refEngine) Pending() int       { return len(r.events) }

func (r *refEngine) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	r.seq++
	r.events = append(r.events, event{at: r.now + delay, seq: r.seq, fn: fn})
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

// driveModel runs one seeded operation sequence on c and returns the
// firings. Events spawn children as a function of their own id, so the
// workload is the same on any engine that runs them at all.
func driveModel(c clock, seed int64) []firing {
	rng := rand.New(rand.NewSource(seed))
	var log []firing
	next := 0
	var spawn func(depth int, delay time.Duration)
	spawn = func(depth int, delay time.Duration) {
		id := next
		next++
		c.Schedule(delay, func() {
			log = append(log, firing{id, c.Now()})
			if depth >= 3 {
				return
			}
			for k := 0; k < id%3; k++ {
				spawn(depth+1, modelDelays[(id+k)%len(modelDelays)])
			}
		})
	}
	for op := 0; op < 60; op++ {
		if rng.Intn(4) == 0 {
			c.RunUntil(c.Now() + modelDelays[rng.Intn(len(modelDelays))])
			continue
		}
		spawn(0, modelDelays[rng.Intn(len(modelDelays))])
	}
	log = append(log, firing{-1, c.Now()}) // where the clock stood before the drain
	log = append(log, firing{-2, time.Duration(c.Pending())})
	c.RunUntil(time.Hour)
	return log
}

// TestEngineMatchesSortModel checks the value heap against the sort-based
// reference over seeded random Schedule/RunUntil sequences with
// same-instant ties and events scheduled from inside events: same events,
// same order, same clock.
func TestEngineMatchesSortModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		got := driveModel(NewEngine(), seed)
		want := driveModel(&refEngine{}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d firings, reference has %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d is %+v, reference has %+v", seed, i, got[i], want[i])
			}
		}
		if len(got) < 40 {
			t.Fatalf("seed %d: only %d firings; the workload is not exercising the heap", seed, len(got))
		}
	}
}

// TestScheduleDoesNotAllocate pins the point of holding events by value:
// once the heap's slice has grown, scheduling and running an event
// allocates nothing.
func TestScheduleDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(i), fn)
	}
	e.Run()
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.Schedule(time.Duration(64-i), fn)
		}
		e.Run()
	}); n != 0 {
		t.Fatalf("%v allocations per 64 events, want 0", n)
	}
}
