package sched

import "fmt"

// Phase is a worker's place in the capacity lifecycle the autoscaler
// drives: serving → draining → parked → warming → serving. It is the
// one stored answer to "is this worker stopped, draining or warming";
// only a serving worker grants reservations.
type Phase uint8

// Capacity phases.
const (
	PhaseServing Phase = iota
	// PhaseDraining refuses new reservations while in-flight work
	// finishes — the first half of a drain-before-remove shrink. A
	// draining worker parks only once it is idle.
	PhaseDraining
	// PhaseParked is retired: out of the active park, holding nothing.
	PhaseParked
	// PhaseWarming is a freshly activated worker paying its cold-start
	// penalty — the scale-from-zero warmup gate. Its capacity is
	// committed but it refuses reservations until the owner ends the
	// warm-up.
	PhaseWarming
)

// String names the phase.
func (p Phase) String() string {
	return [...]string{"serving", "draining", "parked", "warming"}[p]
}

// capacityEvent names a move on the capacity axis.
type capacityEvent string

const (
	evBeginDrain   capacityEvent = "begin-drain"
	evCancelDrain  capacityEvent = "cancel-drain"
	evRetire       capacityEvent = "retire"
	evActivate     capacityEvent = "activate"
	evActivateCold capacityEvent = "activate-cold"
	evEndWarmup    capacityEvent = "end-warmup"
)

// capacityMoves is the capacity axis's transition table, phase × event
// → phase. A pair it does not list is an illegal move — a control-plane
// bug — and Worker.move panics on it.
var capacityMoves = map[Phase]map[capacityEvent]Phase{
	PhaseServing:  {evBeginDrain: PhaseDraining},
	PhaseDraining: {evCancelDrain: PhaseServing, evRetire: PhaseParked},
	// Retiring a parked worker again is a no-op, so a reaper need not
	// know whether an earlier pass already parked it.
	PhaseParked: {evRetire: PhaseParked, evActivate: PhaseServing, evActivateCold: PhaseWarming},
	// A shrink may pick a worker that is still warming. It has granted
	// nothing since activation, so the retire that follows parks it at
	// once: the warm-up is abandoned, not carried into the next
	// activation.
	PhaseWarming: {evEndWarmup: PhaseServing, evBeginDrain: PhaseDraining},
}

// Worker is one schedulable worker process with multi-dimensional
// capacity. VCU workers have exclusive access to one VCU; CPU workers use
// the legacy single-slot model (§3.3.3).
type Worker struct {
	ID   int
	Type *WorkerType

	capacity  Resources
	available Resources
	phase     Phase
}

// NewWorker returns a serving worker with the type's full capacity
// available.
func NewWorker(id int, wt *WorkerType) *Worker {
	return &Worker{ID: id, Type: wt, capacity: wt.Capacity, available: wt.Capacity}
}

// move applies one capacity event and reports whether the worker
// moved: only a retire can be declined, while the draining worker still
// holds reservations, so in-flight steps always finish on the capacity
// they reserved. Leaving the parked phase re-registers full capacity;
// stale releases from reservations granted before retirement are
// absorbed by the Release clamp, as with ResetCapacity.
func (w *Worker) move(ev capacityEvent) bool {
	to, ok := capacityMoves[w.phase][ev]
	if !ok {
		panic(fmt.Sprintf("sched: worker %d: illegal capacity transition %v --%s-->", w.ID, w.phase, ev))
	}
	if ev == evRetire && w.phase == PhaseDraining && w.available != w.capacity {
		return false
	}
	if w.phase == PhaseParked && to != PhaseParked {
		w.available = w.capacity
	}
	w.phase = to
	return true
}

// Capacity returns the worker's total capacity.
func (w *Worker) Capacity() Resources { return w.capacity }

// Available returns the worker's current availability.
func (w *Worker) Available() Resources { return w.available }

// Idle reports whether nothing is scheduled on the worker — the condition
// for stopping it and reallocating its resources to another pool.
func (w *Worker) Idle() bool { return w.available == w.capacity }

// Phase returns the worker's capacity phase.
func (w *Worker) Phase() Phase { return w.phase }

// CanReserve reports whether the worker would grant need now: it is
// serving and need fits its availability. Draining, parked and warming
// workers refuse: on the way out, out, or not yet in.
func (w *Worker) CanReserve(need Resources) bool {
	return w.phase == PhaseServing && w.available.Fits(need)
}

// Release returns previously reserved resources. Availability is
// clamped to capacity so a release that straddles a ResetCapacity (the
// worker's host was repaired while the reservation was in flight)
// cannot overcommit the worker.
func (w *Worker) Release(need Resources) {
	w.available.Add(need)
	w.available.ClampTo(w.capacity)
}

// ResetCapacity re-registers the worker's full capacity: the
// repair→readmit path (§4.4) returning a host's workers to the
// availability cache. Reservations granted before the reset are void;
// their eventual releases are absorbed by the Release clamp. The phase
// stands: repair does not undo what the autoscaler decided, so a parked
// worker stays parked and a pending drain stays pending.
func (w *Worker) ResetCapacity() { w.available = w.capacity }

// BeginDrain starts a drain-before-remove shrink: the worker refuses
// new reservations while its in-flight work finishes. Call TryRetire
// once the work has released to complete the removal.
func (w *Worker) BeginDrain() { w.move(evBeginDrain) }

// CancelDrain returns a draining worker to service without retiring it
// (a scale-down decision reversed before the drain completed).
func (w *Worker) CancelDrain() { w.move(evCancelDrain) }

// TryRetire parks a draining worker if it is idle: the second half of
// drain-before-remove. It fails while reservations are still held.
func (w *Worker) TryRetire() bool { return w.move(evRetire) }

// Activate returns a parked worker to the park with full capacity — the
// scale-up primitive. A cold activation starts in the warm-up phase and
// serves only after EndWarmup.
func (w *Worker) Activate(cold bool) {
	if cold {
		w.move(evActivateCold)
	} else {
		w.move(evActivate)
	}
}

// EndWarmup opens a warming worker for reservations.
func (w *Worker) EndWarmup() { w.move(evEndWarmup) }
