package cluster

import (
	"time"

	"openvcu/internal/sched"
	"openvcu/internal/transcode"
)

// This file holds the data structures that keep a saturated dispatch
// pass cheap (DESIGN.md "Dispatch"): the per-class ready queue, the
// per-step retry cache, and the record that lets the next pass resume
// where room was made. The pass itself is dispatchPass / visit /
// tryPlace / place in cluster.go.

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
	// kept counts, per class, the steps at the head of the slice that
	// the last pass left waiting; the ones behind them arrived since.
	kept [numClasses]int
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
	out, kept := steps[:0], 0
	for i, s := range steps {
		if keep(s) {
			out = append(out, s)
			if i < q.kept[cls] {
				kept++
			}
		} else if s.Kind == StepTranscode {
			q.transcodes[cls]--
		}
	}
	clear(steps[len(out):])
	q.steps[cls] = out
	q.kept[cls] = kept
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
	if i < q.kept[cls] {
		q.kept[cls]--
	}
	copy(steps[i:], steps[i+1:])
	steps[len(steps)-1] = nil
	q.steps[cls] = steps[:len(steps)-1]
	q.transcodes[cls]--
	return s
}

// detach hands the queued steps to a dispatch pass, with the length of
// each class's kept prefix, and leaves the queue empty, so that
// everything enqueued during the pass is an arrival and everything else
// that reads the queue mid-pass — admission, shedding, the high-water
// gauge — sees the arrivals only.
func (q *readyQueue) detach() (steps [numClasses][]*Step, transcodes, kept [numClasses]int) {
	steps, transcodes, kept = q.steps, q.transcodes, q.kept
	for cls := range q.steps {
		q.steps[cls] = q.spare[cls][:0]
	}
	q.transcodes = [numClasses]int{}
	q.kept = [numClasses]int{}
	return steps, transcodes, kept
}

// attach puts back what a pass left waiting — steps[cls], compacted by
// the pass, of which transcodes[cls] are transcode steps — as each
// class's kept prefix, with the arrivals of the class behind it.
func (q *readyQueue) attach(steps [numClasses][]*Step, transcodes [numClasses]int) {
	for cls, arrivals := range q.steps {
		q.steps[cls] = append(steps[cls], arrivals...)
		q.transcodes[cls] += transcodes[cls]
		q.kept[cls] = len(steps[cls])
		clear(arrivals)
		q.spare[cls] = arrivals[:0]
	}
}

// blockedPlacement is what a step that found no room keeps for its next
// attempt: the request it tried to place under brownout rung level, and
// that request's cost. A retry under the same rung reuses both, and the
// need is what passRecord groups a waiting step by; a step holds one
// only while it waits.
type blockedPlacement struct {
	level transcode.DegradeLevel
	req   *sched.StepRequest
	need  sched.Resources
}

// refusedGroup is the (pool, need) of a waiting step first-fit refused
// under the current brownout rung with no tried device. Steps of one
// class in one group are interchangeable to first-fit: they exclude the
// same workers and fit on the same ones.
type refusedGroup struct {
	pool sched.UseCase
	need sched.Resources
}

// addGroup adds g to gs unless it is there already.
func addGroup(gs []refusedGroup, g refusedGroup) []refusedGroup {
	for _, h := range gs {
		if h == g {
			return gs
		}
	}
	return append(gs, g)
}

// passRecord is what the last dispatch pass leaves for the next one:
// the brownout rung it ran under; wake, the earliest instant time alone
// can change what a pass finds — a waiting step's backoff ending, a
// waiting live step passing its drop deadline, or now, when an eligible
// waiting step has a tried device and is asked every pass; and, per
// class, the groups of the waiting steps it left refused (a superset
// does no harm: it only makes a pass visit more). Until wake, under the
// same rung, a kept step's answer can change only on a worker roomMade
// named since (Cluster.room) that could take one of its class's groups,
// so the next pass resumes there (DESIGN.md "Dispatch" has the
// argument). The zero record holds for no instant.
type passRecord struct {
	level  transcode.DegradeLevel
	wake   time.Duration
	groups [numClasses][]refusedGroup
	// next is the buffer a pass collects a class's groups in before they
	// replace (a full visit) or join (a resumed one) groups.
	next [numClasses][]refusedGroup
}
