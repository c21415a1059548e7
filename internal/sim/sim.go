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
	e.pq.push(e.event(delay, fn, nil))
}

// event stamps the next scheduling-order number on an event due after
// delay.
func (e *Engine) event(delay time.Duration, fn func(), t *Timer) event {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	return event{at: e.now + delay, seq: e.seq, fn: fn, t: t}
}

// Timer is one event that can be moved or cancelled while it is queued:
// a deadline that usually does not fire, or a completion estimate that
// is revised. It is a value, meant to be embedded in what it times and
// reused; bind its function once, then arm it with Engine.Reset and
// disarm it with Engine.Stop. A fired timer is disarmed before its
// function runs, so the function may re-arm it.
type Timer struct {
	fn func()
	// pos is 1 + the timer's index in the engine's heap while it is
	// armed, 0 while it is not.
	pos int
}

// Bind sets the function t runs when it fires.
func (t *Timer) Bind(fn func()) { t.fn = fn }

// Armed reports whether t is queued to fire.
func (t *Timer) Armed() bool { return t.pos != 0 }

// Reset arms t to fire after delay, moving it if it is already queued.
// Either way it takes its place in scheduling order now, exactly as a
// Schedule call here would: among events due at the same instant, it
// runs after every event scheduled before this call.
func (e *Engine) Reset(t *Timer, delay time.Duration) {
	ev := e.event(delay, t.fn, t)
	if t.pos == 0 {
		e.pq.push(ev)
		return
	}
	i := t.pos - 1
	if ev.before(e.pq[i]) {
		e.pq.up(i, ev)
	} else {
		e.pq.down(i, ev)
	}
}

// Stop disarms t. Stopping a timer that is not armed does nothing.
func (e *Engine) Stop(t *Timer) {
	if t.pos != 0 {
		e.pq.remove(t.pos - 1)
	}
}

// Run processes events until the queue is empty.
func (e *Engine) Run() {
	for len(e.pq) > 0 {
		ev := e.pq.remove(0)
		e.now = ev.at
		ev.fn()
	}
}

// RunUntil processes events with timestamps <= deadline, then sets the
// clock to deadline. Later events stay queued.
func (e *Engine) RunUntil(deadline time.Duration) {
	for len(e.pq) > 0 && e.pq[0].at <= deadline {
		ev := e.pq.remove(0)
		e.now = ev.at
		ev.fn()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Pending reports the number of queued events, armed timers included.
func (e *Engine) Pending() int { return len(e.pq) }

type event struct {
	at  time.Duration
	seq int64
	fn  func()
	t   *Timer // the timer this event is, nil for a Schedule call's
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
// an event allocates nothing beyond the slice's own growth. A timer's
// event keeps the timer's pos up to date wherever it moves.
type eventHeap []event

// set puts ev in slot i.
func (h eventHeap) set(i int, ev event) {
	h[i] = ev
	if ev.t != nil {
		ev.t.pos = i + 1
	}
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	h.up(len(*h)-1, ev)
}

// up places ev at slot i or above: it climbs while it sorts before its
// parent.
func (h eventHeap) up(i int, ev event) {
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(h[parent]) {
			break
		}
		h.set(i, h[parent])
		i = parent
	}
	h.set(i, ev)
}

// down places ev at slot i or below: it sinks while a child sorts
// before it.
func (h eventHeap) down(i int, ev event) {
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(ev) {
			break
		}
		h.set(i, h[child])
		i = child
	}
	h.set(i, ev)
}

// remove takes the event in slot i out of the heap and returns it; the
// root is slot 0.
func (h *eventHeap) remove(i int) event {
	q := *h
	ev := q[i]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the closure so the collector can have it
	q = q[:n]
	*h = q
	if i < n {
		if i > 0 && last.before(q[(i-1)/2]) {
			q.up(i, last)
		} else {
			q.down(i, last)
		}
	}
	if ev.t != nil {
		ev.t.pos = 0
	}
	return ev
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
