package cluster

import (
	"openvcu/internal/sched"
	"openvcu/internal/transcode"
)

// This file holds the data structures that keep a saturated dispatch
// pass cheap (DESIGN.md "Overload & graceful degradation"): the
// per-class ready queue, the blocked-need memo and the per-step retry
// cache. The pass itself is dispatchPass / tryPlace / place in
// cluster.go.

// numClasses is the number of sched.Priority classes.
const numClasses = int(sched.PriorityBatch) + 1

// readyQueue is the cluster's work queue: one slice per priority class,
// each in arrival order, holding ready steps and steps parked in retry
// backoff. Every step of a graph has the graph's class, so a step sits
// in exactly one slice for as long as it is queued.
type readyQueue struct {
	steps [numClasses][]*Step
	// transcodes counts the transcode steps in each slice — what
	// MaxQueueLen bounds, and how admit finds its victim's class without
	// a scan.
	transcodes [numClasses]int
	// spare are the empty buffers a dispatch pass swaps in to collect
	// the steps enqueued while it runs.
	spare [numClasses][]*Step
}

// len is the number of queued steps of every kind.
func (q *readyQueue) len() int {
	n := 0
	for _, steps := range q.steps {
		n += len(steps)
	}
	return n
}

// backlog is the number of queued transcode steps.
func (q *readyQueue) backlog() int {
	n := 0
	for _, t := range q.transcodes {
		n += t
	}
	return n
}

func (q *readyQueue) push(cls sched.Priority, s *Step) {
	q.steps[cls] = append(q.steps[cls], s)
	if s.Kind == StepTranscode {
		q.transcodes[cls]++
	}
}

// filter removes from class cls, in place and keeping order, the steps
// keep rejects.
func (q *readyQueue) filter(cls sched.Priority, keep func(*Step) bool) {
	steps := q.steps[cls]
	kept := steps[:0]
	for _, s := range steps {
		if keep(s) {
			kept = append(kept, s)
		} else if s.Kind == StepTranscode {
			q.transcodes[cls]--
		}
	}
	clear(steps[len(kept):])
	q.steps[cls] = kept
}

// lastTranscode removes and returns the freshest transcode step of
// class cls, or nil when the class holds none.
func (q *readyQueue) lastTranscode(cls sched.Priority) *Step {
	if q.transcodes[cls] == 0 {
		return nil
	}
	steps := q.steps[cls]
	i := len(steps) - 1
	for steps[i].Kind != StepTranscode {
		i--
	}
	s := steps[i]
	copy(steps[i:], steps[i+1:])
	steps[len(steps)-1] = nil
	q.steps[cls] = steps[:len(steps)-1]
	q.transcodes[cls]--
	return s
}

// detach hands the queued steps to a dispatch pass and leaves the queue
// empty, so that everything enqueued during the pass is an arrival and
// everything else that reads the queue mid-pass — admission, shedding,
// the high-water gauge — sees the arrivals only.
func (q *readyQueue) detach() (steps [numClasses][]*Step, transcodes [numClasses]int) {
	steps, transcodes = q.steps, q.transcodes
	for cls := range q.steps {
		q.steps[cls] = q.spare[cls][:0]
	}
	q.transcodes = [numClasses]int{}
	return steps, transcodes
}

// attach puts back what a pass left waiting — steps[cls], compacted by
// the pass, of which transcodes[cls] are transcode steps — with the
// arrivals of each class behind the survivors.
func (q *readyQueue) attach(steps [numClasses][]*Step, transcodes [numClasses]int) {
	for cls, arrivals := range q.steps {
		q.steps[cls] = append(steps[cls], arrivals...)
		q.transcodes[cls] += transcodes[cls]
		clear(arrivals)
		q.spare[cls] = arrivals[:0]
	}
}

// blockedMemo remembers the resource needs first-fit has failed to place
// since room was last made, by the (class, pool) of the step that
// failed. A remembered need comes from a step whose exclusion set was
// the smallest its (class, pool) can have — no tried device, no avoided
// one — so while no worker gains room, any step of that (class, pool)
// needing at least as much in every dimension must fail as well: it
// excludes the same workers or more, and fits where the remembered need
// did or in fewer places. Everything that can give a worker room, or
// make an excluded worker eligible, empties the memo (Cluster.roomMade),
// and dispatch empties it on entry, so it never outlives one call.
type blockedMemo struct {
	needs [numClasses][2][]sched.Resources // by sched.Priority, sched.UseCase
}

func (m *blockedMemo) clear() {
	for cls := range m.needs {
		for pool := range m.needs[cls] {
			m.needs[cls][pool] = m.needs[cls][pool][:0]
		}
	}
}

// blocks reports whether need is at least a remembered need in every
// dimension.
func (m *blockedMemo) blocks(cls sched.Priority, pool sched.UseCase, need sched.Resources) bool {
	for i := range m.needs[cls][pool] {
		if need.Fits(m.needs[cls][pool][i]) {
			return true
		}
	}
	return false
}

func (m *blockedMemo) add(cls sched.Priority, pool sched.UseCase, need sched.Resources) {
	m.needs[cls][pool] = append(m.needs[cls][pool], need)
}

// blockedPlacement is what a step that found no room keeps for its next
// attempt: the request it tried to place under brownout rung level, and
// that request's cost. A retry under the same rung reuses both; a step
// holds one only while it waits.
type blockedPlacement struct {
	level transcode.DegradeLevel
	req   *sched.StepRequest
	need  sched.Resources
}
