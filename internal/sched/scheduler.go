package sched

import (
	"fmt"
	"sync"
)

// Worker is one schedulable worker process with multi-dimensional
// capacity. VCU workers have exclusive access to one VCU; CPU workers use
// the legacy single-slot model (§3.3.3).
type Worker struct {
	ID   int
	Type *WorkerType

	mu        sync.Mutex
	capacity  Resources
	available Resources
	stopped   bool
	// draining refuses new reservations while in-flight work finishes —
	// the first half of a drain-before-remove shrink. A draining worker
	// retires (stops) only once it is idle.
	draining bool
	// warming refuses reservations while a freshly activated worker pays
	// its cold-start penalty — the scale-from-zero warmup gate. The
	// owner clears it when the warmup elapses.
	warming bool
}

// NewWorker returns a worker with the type's full capacity available.
func NewWorker(id int, wt *WorkerType) *Worker {
	return &Worker{ID: id, Type: wt, capacity: wt.Capacity, available: wt.Capacity}
}

// Capacity returns the worker's total capacity.
func (w *Worker) Capacity() Resources {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.capacity
}

// Available returns the worker's current availability.
func (w *Worker) Available() Resources {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.available
}

// Idle reports whether nothing is scheduled on the worker — the condition
// for stopping it and reallocating its resources to another pool.
func (w *Worker) Idle() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.available == w.capacity
}

// Stopped reports whether the worker has been stopped.
func (w *Worker) Stopped() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stopped
}

// tryReserve atomically claims need if it fits and the worker is running.
// Draining and warming workers refuse: one is on its way out, the other
// not yet serving.
func (w *Worker) tryReserve(need Resources) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stopped || w.draining || w.warming || !w.available.Fits(need) {
		return false
	}
	w.available.Sub(need)
	return true
}

// Release returns previously reserved resources. Availability is
// clamped to capacity so a release that straddles a ResetCapacity (the
// worker's host was repaired while the reservation was in flight)
// cannot overcommit the worker.
func (w *Worker) Release(need Resources) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.available.Add(need)
	w.available.ClampTo(w.capacity)
}

// ResetCapacity re-registers the worker's full capacity and clears the
// stopped flag: the repair→readmit path (§4.4) returning a host's
// workers to the availability cache. Reservations granted before the
// reset are void; their eventual releases are absorbed by the Release
// clamp.
func (w *Worker) ResetCapacity() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.available = w.capacity
	w.stopped = false
	w.draining = false
	w.warming = false
}

// BeginDrain starts a drain-before-remove shrink: the worker refuses
// new reservations while its in-flight work finishes. Call TryRetire
// once the work has released to complete the removal.
func (w *Worker) BeginDrain() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.stopped {
		w.draining = true
	}
}

// CancelDrain returns a draining worker to service without retiring it
// (a scale-down decision reversed before the drain completed).
func (w *Worker) CancelDrain() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.draining = false
}

// Draining reports whether the worker is refusing new work ahead of
// retirement.
func (w *Worker) Draining() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.draining
}

// TryRetire stops the worker if it is idle: the second half of
// drain-before-remove. It fails while reservations are still held, so
// in-flight steps always finish on the capacity they reserved.
func (w *Worker) TryRetire() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stopped {
		return true
	}
	if w.available != w.capacity {
		return false
	}
	w.stopped = true
	w.draining = false
	return true
}

// Activate returns a retired worker to service with full capacity — the
// scale-up primitive. Stale releases from reservations granted before
// retirement are absorbed by the Release clamp, as with ResetCapacity.
func (w *Worker) Activate() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.available = w.capacity
	w.stopped = false
	w.draining = false
}

// SetWarming flips the cold-start warmup gate: a warming worker is
// active (its capacity is committed) but refuses reservations until the
// owner clears the flag.
func (w *Worker) SetWarming(v bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.warming = v
}

// Warming reports whether the worker is inside its activation warmup.
func (w *Worker) Warming() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.warming
}

// WorkerType defines a class of workers: its capacity vector and the
// mapping from a step request to the resources it needs — "the worker
// type also defines a mapping from a step request ... to the amount and
// type of resource required" (§3.3.3). The mapping is swappable at
// runtime for dynamic tuning.
type WorkerType struct {
	Name     string
	Capacity Resources

	mu   sync.RWMutex
	cost func(req any) Resources
}

// NewWorkerType builds a worker type.
func NewWorkerType(name string, capacity Resources, cost func(req any) Resources) *WorkerType {
	return &WorkerType{Name: name, Capacity: capacity, cost: cost}
}

// Cost maps a step request to its resource needs.
func (wt *WorkerType) Cost(req any) Resources {
	wt.mu.RLock()
	defer wt.mu.RUnlock()
	return wt.cost(req)
}

// SetCost replaces the cost mapping — the post-deployment tuning hook
// that, e.g., enabled opportunistic software decode (§3.3.3).
func (wt *WorkerType) SetCost(cost func(req any) Resources) {
	wt.mu.Lock()
	defer wt.mu.Unlock()
	wt.cost = cost
}

// Scheduler is the availability cache plus the greedy first-fit worker
// picker of Fig. 6: one list of workers in worker-number order. The
// production scheduler is horizontally scaled "due to the large number
// of workers and the need for low latency"; that sharding is out of
// model here.
type Scheduler struct {
	mu      sync.RWMutex
	workers []*Worker // ascending ID, append-only
}

// NewScheduler returns a Scheduler with room for sizeHint workers.
func NewScheduler(sizeHint int) *Scheduler {
	return &Scheduler{workers: make([]*Worker, 0, max(sizeHint, 0))}
}

// AddWorker registers a worker in the availability cache. Workers must be
// added in ascending ID order for first-fit-by-number semantics.
func (s *Scheduler) AddWorker(w *Worker) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.workers = append(s.workers, w)
}

// ErrNoCapacity is returned when no worker can hold the request.
var ErrNoCapacity = fmt.Errorf("sched: no worker with sufficient capacity")

// Assignment is a granted reservation; call Release when the step ends.
type Assignment struct {
	Worker *Worker
	Need   Resources
}

// Release returns the reservation to the worker.
func (a *Assignment) Release() { a.Worker.Release(a.Need) }

// Schedule finds the first worker (by worker number) whose availability
// fits the request's needs and reserves them — the load-maximizing greedy
// algorithm of Fig. 6. exclude filters out workers (used to avoid a VCU
// the request already failed on, §4.4).
func (s *Scheduler) Schedule(need Resources, exclude func(*Worker) bool) (*Assignment, error) {
	// The list is append-only, so the snapshot stays valid after the
	// lock is dropped and exclude runs outside it.
	s.mu.RLock()
	workers := s.workers
	s.mu.RUnlock()
	for _, w := range workers {
		if exclude != nil && exclude(w) {
			continue
		}
		if w.tryReserve(need) {
			return &Assignment{Worker: w, Need: need}, nil
		}
	}
	return nil, ErrNoCapacity
}
