// Package sim is a small deterministic discrete-event simulation engine:
// an event queue with a virtual clock, FIFO multi-server resources, and a
// fluid (processor-sharing) resource for modeling shared bandwidth. The
// VCU chip model and the fleet simulator are built on it.
package sim

import "time"

// Engine is a discrete-event executor. Events scheduled for the same
// instant run in scheduling order, so simulations are fully deterministic.
type Engine struct {
	now time.Duration
	pq  eventHeap
	seq int64
}

// NewEngine returns an Engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Schedule runs fn after delay of virtual time.
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	e.pq.push(event{at: e.now + delay, seq: e.seq, fn: fn})
}

// Run processes events until the queue is empty.
func (e *Engine) Run() {
	for len(e.pq) > 0 {
		ev := e.pq.pop()
		e.now = ev.at
		ev.fn()
	}
}

// RunUntil processes events with timestamps <= deadline, then sets the
// clock to deadline. Later events stay queued.
func (e *Engine) RunUntil(deadline time.Duration) {
	for len(e.pq) > 0 && e.pq[0].at <= deadline {
		ev := e.pq.pop()
		e.now = ev.at
		ev.fn()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.pq) }

type event struct {
	at  time.Duration
	seq int64
	fn  func()
}

// before is the execution order: by time, then by scheduling order.
// seq is unique, so the order is total and any correct heap pops the
// same sequence.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events held by value: scheduling
// an event allocates nothing beyond the slice's own growth.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the closure so the collector can have it
	q = q[:n]
	// Sift last down from the root.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(q[child]) {
			child = r
		}
		if !q[child].before(last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	if n > 0 {
		q[i] = last
	}
	*h = q
	return top
}

// Server is a FIFO multi-server queue: up to Capacity jobs in service,
// the rest waiting. It models core pools (encoder cores, decoder cores).
type Server struct {
	eng      *Engine
	capacity int
	busy     int
	queue    []serverJob

	// BusyTime integrates busy-server-seconds for utilization reporting.
	BusyTime   time.Duration
	lastChange time.Duration
	ServedJobs int64
}

type serverJob struct {
	service time.Duration
	done    func()
}

// NewServer returns a Server with the given parallel capacity.
func NewServer(eng *Engine, capacity int) *Server {
	if capacity < 1 {
		capacity = 1
	}
	return &Server{eng: eng, capacity: capacity}
}

// Submit enqueues a job with the given service time; done runs at
// completion.
func (s *Server) Submit(service time.Duration, done func()) {
	s.queue = append(s.queue, serverJob{service, done})
	s.dispatch()
}

func (s *Server) accountBusy() {
	s.BusyTime += time.Duration(s.busy) * (s.eng.Now() - s.lastChange)
	s.lastChange = s.eng.Now()
}

func (s *Server) dispatch() {
	for s.busy < s.capacity && len(s.queue) > 0 {
		job := s.queue[0]
		s.queue = s.queue[1:]
		s.accountBusy()
		s.busy++
		s.eng.Schedule(job.service, func() {
			s.accountBusy()
			s.busy--
			s.ServedJobs++
			if job.done != nil {
				job.done()
			}
			s.dispatch()
		})
	}
}

// Utilization returns mean busy fraction over [0, now].
func (s *Server) Utilization() float64 {
	total := time.Duration(s.busy)*(s.eng.Now()-s.lastChange) + s.BusyTime
	if s.eng.Now() == 0 {
		return 0
	}
	return float64(total) / float64(s.eng.Now()) / float64(s.capacity)
}
