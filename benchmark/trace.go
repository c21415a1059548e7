package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call from the benchmark into a layer. Parent is the
// index of the enclosing span (-1 for a root); Op is the video, frame,
// pass or repetition the call belongs to, so the spans of one operation
// share an identifier.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records spans in memory; they are written out once, after the
// run. A nil *tracer is the untraced run: begin and end do nothing, so
// workload code calls them unconditionally. Spans nest on one goroutine
// (the benchmark's own), which is all "measured from outside" needs.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string, op int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, StartNs: int64(time.Since(t.epoch))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// selfTimes returns, per span name, the total time spent in spans of
// that name minus the time their child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		self[s.Name] += s.dur() - child[i]
	}
	return self
}

// rootTime is the total duration of the root spans.
func (t *tracer) rootTime() time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Parent < 0 {
			d += s.dur()
		}
	}
	return d
}

// durations returns the duration of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
