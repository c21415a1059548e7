package sched

import "fmt"

// WorkerType defines a class of workers: its capacity vector and the
// mapping from a step request to the resources it needs — "the worker
// type also defines a mapping from a step request ... to the amount and
// type of resource required" (§3.3.3).
type WorkerType struct {
	Name     string
	Capacity Resources

	cost func(*StepRequest) Resources
}

// NewWorkerType builds a worker type.
func NewWorkerType(name string, capacity Resources, cost func(*StepRequest) Resources) *WorkerType {
	return &WorkerType{Name: name, Capacity: capacity, cost: cost}
}

// Cost maps a step request to its resource needs.
func (wt *WorkerType) Cost(req *StepRequest) Resources { return wt.cost(req) }

// Scheduler is the availability cache plus the greedy first-fit worker
// picker of Fig. 6: one list of workers in worker-number order. The
// production scheduler is horizontally scaled "due to the large number
// of workers and the need for low latency"; that sharding is out of
// model here.
type Scheduler struct {
	workers []*Worker // ascending ID, append-only
}

// NewScheduler returns a Scheduler with room for sizeHint workers.
func NewScheduler(sizeHint int) *Scheduler {
	return &Scheduler{workers: make([]*Worker, 0, max(sizeHint, 0))}
}

// AddWorker registers a worker in the availability cache. Workers must be
// added in ascending ID order for first-fit-by-number semantics.
func (s *Scheduler) AddWorker(w *Worker) { s.workers = append(s.workers, w) }

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
// the request already failed on, §4.4). exclude is asked only of a
// worker that could take need: room is a few compares, exclude is the
// caller's closure, and both are pure, so the order does not change the
// answer.
func (s *Scheduler) Schedule(need Resources, exclude func(*Worker) bool) (*Assignment, error) {
	for _, w := range s.workers {
		if !w.CanReserve(need) || exclude != nil && exclude(w) {
			continue
		}
		w.available.Sub(need)
		return &Assignment{Worker: w, Need: need}, nil
	}
	return nil, ErrNoCapacity
}
