package sched

import (
	"math/rand"
	"slices"
	"testing"
)

// Model-based test: seeded random operation sequences run against the
// scheduler and against the reference below. The test touches Resources
// only through literals, indexing and range, so the same file checks any
// representation of the vector.

// modelWorker is the reference: a worker's state, its lifecycle as plain
// conditions rather than the transition table.
type modelWorker struct {
	avail Resources
	phase Phase
}

func (m *modelWorker) grants(need Resources) bool {
	if m.phase != PhaseServing {
		return false
	}
	for d, v := range need {
		if m.avail[d] < v {
			return false
		}
	}
	return true
}

// tryReserve claims need if the worker can reserve it: one worker's
// share of Schedule, for the tests that reserve on a chosen worker.
func (w *Worker) tryReserve(need Resources) bool {
	if !w.CanReserve(need) {
		return false
	}
	w.available.Sub(need)
	return true
}

func (m *modelWorker) reserve(need Resources) {
	for d, v := range need {
		m.avail[d] -= v
	}
}

func (m *modelWorker) idle(capacity Resources) bool {
	for d, c := range capacity {
		if m.avail[d] != c {
			return false
		}
	}
	return true
}

func (m *modelWorker) release(need, capacity Resources) {
	for d, v := range need {
		m.avail[d] = min(m.avail[d]+v, capacity[d])
	}
}

func copyResources(r Resources) Resources {
	out := Resources{}
	for d, v := range r {
		out[d] = v
	}
	return out
}

func randomNeed(r *rand.Rand, capacity Resources) Resources {
	need := Resources{}
	for d, c := range capacity {
		switch r.Intn(3) {
		case 0: // dimension not requested
		case 1:
			need[d] = 0
		default:
			need[d] = r.Int63n(c*6/10 + 1)
		}
	}
	if r.Intn(16) == 0 {
		need[DimSlots] = 1 // VCU workers have no slots: can never fit
	}
	return need
}

func TestSchedulerMatchesModel(t *testing.T) {
	const startWorkers, maxWorkers, nOps = 6, 10, 4000
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		wt := vcuType()
		s := NewScheduler(2)
		var workers []*Worker
		var model []*modelWorker
		step := 0
		addWorker := func() {
			w := NewWorker(len(workers), wt)
			s.AddWorker(w)
			workers = append(workers, w)
			model = append(model, &modelWorker{avail: copyResources(wt.Capacity)})
		}
		for len(workers) < startWorkers {
			addWorker()
		}
		var held []*Assignment

		// check compares every worker with the model after every
		// operation.
		check := func(op string) {
			t.Helper()
			for i, w := range workers {
				avail, capacity, m := w.Available(), w.Capacity(), model[i]
				for d, c := range capacity {
					if avail[d] < 0 || avail[d] > c {
						t.Fatalf("seed %d op %d %s: worker %d %v available %d outside [0, %d]", seed, step, op, i, d, avail[d], c)
					}
					if avail[d] != m.avail[d] {
						t.Fatalf("seed %d op %d %s: worker %d %v available %d, model %d", seed, step, op, i, d, avail[d], m.avail[d])
					}
				}
				if phase := w.Phase(); phase != m.phase {
					t.Fatalf("seed %d op %d %s: worker %d is %v, model %v", seed, step, op, i, phase, m.phase)
				}
			}
		}
		// lifecycle runs one transition: when the model says it is legal
		// the worker must take it, otherwise it must panic and (as check
		// then verifies) change nothing.
		lifecycle := func(op string, legal bool, call func()) {
			t.Helper()
			var recovered any
			func() {
				defer func() { recovered = recover() }()
				call()
			}()
			if (recovered == nil) != legal {
				t.Fatalf("seed %d op %d %s: legal=%v, recovered %v", seed, step, op, legal, recovered)
			}
		}
		release := func() {
			i := r.Intn(len(held))
			a := held[i]
			held = append(held[:i], held[i+1:]...)
			a.Release()
			model[a.Worker.ID].release(a.Need, wt.Capacity)
		}

		for step = 0; step < nOps; step++ {
			i := r.Intn(len(workers))
			w, m := workers[i], model[i]
			var op string
			switch k := r.Intn(18); {
			case k < 6:
				op = "Schedule"
				need := randomNeed(r, wt.Capacity)
				mask := r.Intn(1 << len(workers))
				if r.Intn(2) == 0 {
					mask = 0
				}
				// want is first-fit's answer, and wantAsked the workers
				// that grant need, in worker order, up to it: exclude must
				// be asked of those and of no worker without room.
				want, wantAsked := -1, []int{}
				for id, mw := range model {
					if !mw.grants(need) {
						continue
					}
					wantAsked = append(wantAsked, id)
					if mask&(1<<id) == 0 {
						want = id
						break
					}
				}
				asked := []int{}
				a, err := s.Schedule(need, func(w *Worker) bool {
					asked = append(asked, w.ID)
					return mask&(1<<w.ID) != 0
				})
				if !slices.Equal(asked, wantAsked) {
					t.Fatalf("seed %d op %d: exclude asked of workers %v, want those that grant %v up to the answer: %v", seed, step, asked, need, wantAsked)
				}
				switch {
				case want < 0 && err != ErrNoCapacity:
					t.Fatalf("seed %d op %d: granted worker %d, model has no eligible worker", seed, step, a.Worker.ID)
				case want >= 0 && err != nil:
					t.Fatalf("seed %d op %d: %v, model grants worker %d", seed, step, err, want)
				case want >= 0 && a.Worker.ID != want:
					t.Fatalf("seed %d op %d: granted worker %d, first fit is %d", seed, step, a.Worker.ID, want)
				}
				if a != nil {
					model[want].reserve(need)
					held = append(held, a)
				}
			case k < 10:
				op = "Release"
				if len(held) > 0 {
					release()
				}
			case k == 10:
				op = "BeginDrain"
				legal := m.phase == PhaseServing || m.phase == PhaseWarming
				lifecycle(op, legal, w.BeginDrain)
				if legal {
					m.phase = PhaseDraining
				}
			case k == 11:
				op = "CancelDrain"
				legal := m.phase == PhaseDraining
				lifecycle(op, legal, w.CancelDrain)
				if legal {
					m.phase = PhaseServing
				}
			case k == 12:
				op = "TryRetire"
				legal := m.phase == PhaseDraining || m.phase == PhaseParked
				want := m.phase == PhaseParked || m.idle(wt.Capacity)
				var got bool
				lifecycle(op, legal, func() { got = w.TryRetire() })
				if legal && got != want {
					t.Fatalf("seed %d op %d: TryRetire %v, model %v", seed, step, got, want)
				}
				if legal && want {
					m.phase = PhaseParked
				}
			case k == 13:
				op = "Activate"
				cold := r.Intn(2) == 0
				legal := m.phase == PhaseParked
				lifecycle(op, legal, func() { w.Activate(cold) })
				if legal {
					m.avail, m.phase = copyResources(wt.Capacity), PhaseServing
					if cold {
						m.phase = PhaseWarming
					}
				}
			case k == 14:
				op = "EndWarmup"
				legal := m.phase == PhaseWarming
				lifecycle(op, legal, w.EndWarmup)
				if legal {
					m.phase = PhaseServing
				}
			case k == 15 && len(workers) < maxWorkers:
				// A worker joins after reservations have been granted.
				op = "AddWorker"
				addWorker()
			case k == 16:
				// A reservation one worker is asked for and mostly refuses
				// (the need may not fit, the worker may not be serving),
				// and a question put to that worker straight after.
				op = "tryReserve, then Idle"
				need := randomNeed(r, wt.Capacity)
				want := m.grants(need)
				got, idle := w.tryReserve(need), w.Idle()
				if got != want {
					t.Fatalf("seed %d op %d: tryReserve %v, model %v", seed, step, got, want)
				}
				if got {
					m.reserve(need)
					held = append(held, &Assignment{Worker: w, Need: need})
				}
				if wantIdle := m.idle(wt.Capacity); idle != wantIdle {
					t.Fatalf("seed %d op %d: Idle %v after tryReserve, model %v", seed, step, idle, wantIdle)
				}
			default:
				op = "ResetCapacity"
				w.ResetCapacity()
				m.avail = copyResources(wt.Capacity)
			}
			check(op)
		}

		// Quiescence: every reservation, stale or live, comes back and
		// every worker is whole again.
		for len(held) > 0 {
			release()
		}
		check("quiescence")
		for i, w := range workers {
			if !w.Idle() {
				t.Fatalf("seed %d: worker %d not idle at quiescence: %v of %v", seed, i, w.Available(), w.Capacity())
			}
		}
	}
}
