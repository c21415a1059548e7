package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refFluid is the reference Fluid: flows in a map, each with its own
// clock, every walk over a freshly sorted id list, and a fresh
// completion event per rebalance that a later rebalance voids by epoch.
// Fluid must reproduce it bit for bit.
type refFluid struct {
	eng             *Engine
	capacity        float64
	flows           map[int64]*refFlow
	nextID          int64
	epoch           int64
	TransferredWork float64
}

// refFlow is a reference flow: its progress was last brought up to
// date at updatedAt.
type refFlow struct {
	demand, remaining, rate float64
	updatedAt               time.Duration
	done                    func()
}

func (f *refFluid) Start(work, demand float64, done func()) {
	if work <= 0 {
		if done != nil {
			f.eng.Schedule(0, done)
		}
		return
	}
	if demand <= 0 {
		demand = f.capacity
	}
	f.nextID++
	id := f.nextID
	f.flows[id] = &refFlow{demand: demand, remaining: work, updatedAt: f.eng.Now(), done: done}
	f.rebalance()
}

func (f *refFluid) sortedIDs() []int64 {
	ids := make([]int64, 0, len(f.flows))
	//lint:ignore determinism keys are sorted immediately below, so iteration order cannot leak
	for id := range f.flows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (f *refFluid) rebalance() {
	f.epoch++
	now := f.eng.Now()
	ids := f.sortedIDs()
	var total float64
	for _, id := range ids {
		fl := f.flows[id]
		elapsed := (now - fl.updatedAt).Seconds()
		drained := fl.rate * elapsed
		if drained > fl.remaining {
			drained = fl.remaining
		}
		fl.remaining -= drained
		f.TransferredWork += drained
		fl.updatedAt = now
		total += fl.demand
	}
	scale := 1.0
	if total > f.capacity {
		scale = f.capacity / total
	}
	var nextID int64 = -1
	nextAt := time.Duration(1<<62 - 1)
	for _, id := range ids {
		fl := f.flows[id]
		fl.rate = fl.demand * scale
		if fl.rate <= 0 {
			continue
		}
		eta := now + time.Duration(fl.remaining/fl.rate*float64(time.Second))
		if eta < nextAt || (eta == nextAt && id < nextID) {
			nextAt = eta
			nextID = id
		}
	}
	if nextID < 0 {
		return
	}
	epoch := f.epoch
	id := nextID
	f.eng.Schedule(nextAt-now, func() {
		if f.epoch != epoch {
			return
		}
		f.complete(id)
	})
}

func (f *refFluid) complete(id int64) {
	fl, ok := f.flows[id]
	if !ok {
		return
	}
	f.TransferredWork += fl.remaining
	fl.remaining = 0
	delete(f.flows, id)
	done := fl.done
	f.rebalance()
	if done != nil {
		done()
	}
}

// fluidStart is one Start call of a generated mix: at time at, and a
// follow-up Start from its own completion callback when then is set.
type fluidStart struct {
	at           time.Duration
	work, demand float64
	then         *fluidStart
}

// fluidMix draws a mix that crowds the ties and edge cases: zero work,
// zero demand (falls back to capacity), and work/demand taken from a
// few round values so equal ETAs are common.
func fluidMix(r *rand.Rand, n int) []*fluidStart {
	one := func() *fluidStart {
		s := &fluidStart{at: time.Duration(r.Intn(8)) * 250 * time.Millisecond}
		switch r.Intn(10) {
		case 0: // zero work
			s.demand = 10
		case 1: // zero demand
			s.work = float64(1 + r.Intn(4)*50)
		case 2, 3, 4: // round values: equal-ETA ties
			s.work, s.demand = float64(50*(1+r.Intn(3))), float64(25*(1+r.Intn(3)))
		default:
			s.work, s.demand = 1+200*r.Float64(), 1+120*r.Float64()
		}
		return s
	}
	mix := make([]*fluidStart, n)
	for i := range mix {
		mix[i] = one()
		if r.Intn(3) == 0 {
			mix[i].then = one()
		}
	}
	return mix
}

type fluidEvent struct {
	label int
	at    time.Duration
}

// playFluid runs mix through start on eng and returns the completions
// in the order they fired.
func playFluid(eng *Engine, mix []*fluidStart, start func(work, demand float64, done func())) []fluidEvent {
	var log []fluidEvent
	label := 0
	var launch func(s *fluidStart)
	launch = func(s *fluidStart) {
		l := label
		label++
		start(s.work, s.demand, func() {
			log = append(log, fluidEvent{l, eng.Now()})
			if s.then != nil {
				launch(s.then)
			}
		})
	}
	for _, s := range mix {
		eng.Schedule(s.at, func() { launch(s) })
	}
	eng.Run()
	return log
}

func TestFluidMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		mix := fluidMix(rand.New(rand.NewSource(seed)), 40)

		refEng := NewEngine()
		ref := &refFluid{eng: refEng, capacity: 100, flows: map[int64]*refFlow{}}
		want := playFluid(refEng, mix, ref.Start)

		eng := NewEngine()
		f := NewFluid(eng, 100)
		got := playFluid(eng, mix, f.Start)

		if len(got) != len(want) {
			t.Fatalf("seed %d: %d completions, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: completion %d is flow %d at %v, reference flow %d at %v",
					seed, i, got[i].label, got[i].at, want[i].label, want[i].at)
			}
		}
		if f.TransferredWork != ref.TransferredWork {
			t.Fatalf("seed %d: transferred %v, reference %v", seed, f.TransferredWork, ref.TransferredWork)
		}
		if f.Active() != 0 || eng.Now() != refEng.Now() {
			t.Fatalf("seed %d: %d flows left at %v, reference ended at %v", seed, f.Active(), eng.Now(), refEng.Now())
		}
	}
}
