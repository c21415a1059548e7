package cluster

import (
	"time"

	"openvcu/internal/codec"
	"openvcu/internal/sched"
	"openvcu/internal/transcode"
	"openvcu/internal/video"
)

// This file is the overload-control subsystem (paper §2.2, §3.3.3: the
// fleet is provisioned for peak and runs live, upload and batch traffic
// on shared pools with explicit priorities). When chaos or a demand
// spike removes capacity, the cluster degrades gracefully instead of
// backlogging: a bounded queue with priority-aware admission sheds batch
// work first and live work last, live steps that can no longer finish
// inside their real-time usefulness window are dropped ("late live video
// is useless"), and a hysteretic brownout controller trades output
// quality — trimmed ladders, VP9→H.264 downshift, raised encoder speed —
// for survival, restoring full quality as capacity returns.

// OverloadConfig parameterizes the overload-control subsystem. The zero
// value disables every mechanism, preserving the pre-overload unbounded
// queue; each field gates independently so experiments can ablate them.
type OverloadConfig struct {
	// MaxQueueLen bounds the number of queued transcode steps (ready
	// plus parked-in-backoff). At the bound, admitting a step requires
	// evicting a strictly lower-priority queued step (batch sheds first,
	// live last); when none exists, the incoming step itself is shed.
	// 0 leaves the queue unbounded.
	MaxQueueLen int
	// LiveDeadlineFactor sets a live step's usefulness window as this
	// multiple of its chunk wall duration, measured from admission. A
	// live step that can no longer finish inside the window is dropped
	// at dispatch rather than completed late; the stream skips the
	// chunk and continues. 0 disables deadline drops. Must exceed 1:
	// execution alone takes one wall duration.
	LiveDeadlineFactor float64
	// BrownoutPeriod is the brownout controller's feedback interval
	// (thresholds: brownoutEnter, brownoutExit). 0 disables the
	// controller.
	BrownoutPeriod time.Duration
	// HedgeBacklog suppresses straggler hedges while the transcode
	// backlog is at or above this depth, so hedges cannot amplify an
	// overload (a hedge doubles a step's demand exactly when capacity
	// is scarcest). 0 leaves hedging always on.
	HedgeBacklog int
}

// DefaultOverloadConfig returns production-like overload control: a
// queue bounded at a few steps per worker, a 3x-wall live usefulness
// window, a 15s brownout loop with a 2.0-enter/0.5-exit hysteresis
// band, and hedge suppression at half the queue bound.
func DefaultOverloadConfig() OverloadConfig {
	return OverloadConfig{
		MaxQueueLen:        128,
		LiveDeadlineFactor: 3,
		BrownoutPeriod:     15 * time.Second,
		HedgeBacklog:       64,
	}
}

// ClassStats is one priority class's goodput accounting. All counters
// are transcode steps; CPU side-steps are excluded.
type ClassStats struct {
	// Admitted counts steps accepted into the queue (once per step,
	// however many times it is retried).
	Admitted int64
	// Completed counts steps that finished, on hardware or software.
	Completed int64
	// SLOMet counts completions inside the class SLO: for live steps,
	// within the usefulness window of admission; for upload and batch,
	// any completion (their SLO is eventual completion — shedding is
	// what fails it).
	SLOMet int64
	// Shed counts steps rejected or evicted by admission control, plus
	// the queued siblings cancelled when their graph was shed.
	Shed int64
	// Degraded counts steps that executed a brownout-degraded request.
	Degraded int64
	// DeadlineMissed counts live steps dropped because they could no
	// longer finish inside their usefulness window.
	DeadlineMissed int64
}

// SLOAttainment returns the fraction of finalized work in class p that
// met its SLO: SLO-met completions over everything that reached a
// terminal state (completed, shed, or deadline-dropped) — the
// goodput-over-offered-load figure. A class with no finalized work
// attains trivially.
func (s Stats) SLOAttainment(p sched.Priority) float64 {
	cs := s.Classes[p]
	denom := cs.Completed + cs.Shed + cs.DeadlineMissed
	if denom == 0 {
		return 1
	}
	return float64(cs.SLOMet) / float64(denom)
}

// classOf is a step's priority class: its graph's priority (BuildGraph
// derives it from the video — live critical, upload normal, batch
// batch). Orphan steps default to normal.
func (c *Cluster) classOf(s *Step) sched.Priority {
	if s.graph == nil {
		return sched.PriorityNormal
	}
	return s.graph.Priority
}

// TranscodeBacklog counts queued transcode steps, ready and parked —
// the quantity MaxQueueLen bounds and HedgeBacklog tests.
func (c *Cluster) TranscodeBacklog() int { return c.queue.backlog() }

// poolBacklog counts, per pool, the queued transcode steps whose
// backoff has elapsed — work the cluster could run right now. Steps
// parked in retry backoff are excluded: a backoff burst is deferred
// work, not demand.
func (c *Cluster) poolBacklog() (backlog [2]int) { // by sched.UseCase
	now := c.Eng.Now()
	for _, steps := range c.queue.steps {
		for _, s := range steps {
			if s.Kind == StepTranscode && s.eligibleAt <= now {
				backlog[stepPool(s)]++
			}
		}
	}
	return backlog
}

// eligibleBacklog is poolBacklog over both pools.
func (c *Cluster) eligibleBacklog() int {
	backlog := c.poolBacklog()
	return backlog[sched.UseLive] + backlog[sched.UseUpload]
}

// admit applies bounded-queue admission to one transcode step. When the
// queue is at its bound it looks for a strictly lower-priority victim
// (lowest class first, freshest within the class) to evict and shed;
// with no victim, the incoming step itself is shed. Returns whether s
// may join the queue. CPU side-steps bypass the bound: they drain in
// constant time and hold no VCU capacity.
func (c *Cluster) admit(s *Step) bool {
	lim := c.cfg.Overload.MaxQueueLen
	if lim <= 0 || s.Kind != StepTranscode || c.TranscodeBacklog() < lim {
		return true
	}
	for vc := sched.PriorityBatch; vc > c.classOf(s); vc-- {
		if v := c.queue.lastTranscode(vc); v != nil {
			c.shedStep(v)
			return true
		}
	}
	c.shedStep(s)
	return false
}

// shedStep sheds one step and cancels its graph: a video missing a
// chunk cannot assemble, so the whole graph's remaining queued work is
// removed and its in-flight work is discarded on completion. Each
// cancelled transcode step is counted against its class.
func (c *Cluster) shedStep(s *Step) {
	c.markShed(s)
	g := s.graph
	if g == nil || g.Shed {
		return
	}
	g.Shed = true
	c.Stats.GraphsShed++
	c.queue.filter(g.Priority, func(q *Step) bool {
		if q.graph != g {
			return true
		}
		c.markShed(q)
		return false
	})
}

// markShed moves a step to the shed terminal state, counting transcode
// steps against their class once.
func (c *Cluster) markShed(s *Step) {
	if s.State == StepShed {
		return
	}
	s.State = StepShed
	if s.Kind == StepTranscode {
		c.Stats.Classes[c.classOf(s)].Shed++
	}
}

// liveWindow is a live step's usefulness window — LiveDeadlineFactor
// times the chunk's wall duration, measured from admission — and that
// wall duration. A zero window means no deadline applies (non-live
// step, or deadline drops disabled).
func (c *Cluster) liveWindow(s *Step) (window, wall time.Duration) {
	f := c.cfg.Overload.LiveDeadlineFactor
	r := s.Request
	if f <= 0 || r == nil || !r.Realtime || r.FPS <= 0 {
		return 0, 0
	}
	wall = chunkWall(r)
	return time.Duration(f * float64(wall)), wall
}

// chunkWall is the wall-clock duration of a step's chunk.
func chunkWall(r *sched.StepRequest) time.Duration {
	return time.Duration(float64(r.Frames()) / float64(r.FPS) * float64(time.Second))
}

// dropDeadline is the last instant a queued live step is still worth
// dispatching: execution alone takes one wall duration, so once less
// than that remains of its usefulness window the output could only
// arrive after the viewer has moved on. ok is false when no deadline
// applies. A dispatch pass computes it once per visit, for the drop and
// for its wake (passRecord).
func (c *Cluster) dropDeadline(s *Step) (deadline time.Duration, ok bool) {
	w, wall := c.liveWindow(s)
	return s.admittedAt + w - wall, w != 0
}

// dropLate drops a queued live step past its drop deadline. Unlike
// shedding, the drop skips one chunk and lets the stream continue: the
// step resolves as a deadline miss and its dependents (assembly)
// proceed around the gap.
func (c *Cluster) dropLate(s *Step) {
	c.Stats.Classes[c.classOf(s)].DeadlineMissed++
	s.State = StepShed
	c.stepResolved(s)
}

// brownoutEnter and brownoutExit are the brownout controller's
// thresholds on its load signal (eligible transcode backlog per available
// worker): the level rises one rung per tick while the signal is at or
// above brownoutEnter and falls one rung while at or below brownoutExit;
// the band between them is the hysteresis that prevents level flapping.
const (
	brownoutEnter = 2.0
	brownoutExit  = 0.5
)

// brownoutTick is one iteration of the brownout feedback loop. The load
// signal is eligible backlog per available worker, so both a demand
// spike (numerator) and a chaos capacity loss (denominator) push the
// cluster up the degradation ladder. The level moves at most one rung
// per tick, up at or above brownoutEnter and down at or below
// brownoutExit — the gap between the thresholds plus the one-rung rate
// limit is the hysteresis that keeps the controller from flapping while
// the queue oscillates around a threshold.
func (c *Cluster) brownoutTick() {
	pc := c.census()
	signal := float64(c.eligibleBacklog()) / float64(max(pc.accepting, 1))
	switch {
	case signal >= brownoutEnter && c.degradeLevel < transcode.DegradeFloor:
		if c.as != nil && !c.as.oracle() && pc.resizing() {
			// Priority protocol with the autoscaler: a resize is still
			// settling (drains or warmups pending), so the backlog
			// transient is the resize's own doing and already being acted
			// on — raising the degradation ladder now would double-treat
			// one signal. Lowering (restoring quality) stays allowed.
			c.Stats.Autoscale.ConflictTicks++
			break
		}
		c.degradeLevel++
		c.Stats.BrownoutUps++
	case signal <= brownoutExit && c.degradeLevel > transcode.DegradeNone:
		c.degradeLevel--
		c.Stats.BrownoutDowns++
	}
	if c.as != nil {
		pc.setUtilization(&c.Stats)
	}
	c.dispatch()
}

// DegradeLevel returns the brownout controller's current level.
func (c *Cluster) DegradeLevel() transcode.DegradeLevel { return c.degradeLevel }

// degradeFor maps the cluster level to one step's degradation. Shed
// order in reverse: batch degrades at the cluster level, upload lags
// one rung behind, live never degrades — its protection is priority
// dispatch and the deadline drop, not quality loss.
func (c *Cluster) degradeFor(s *Step) transcode.DegradeLevel {
	if c.degradeLevel == transcode.DegradeNone || s.Kind != StepTranscode {
		return transcode.DegradeNone
	}
	switch c.classOf(s) {
	case sched.PriorityCritical:
		return transcode.DegradeNone
	case sched.PriorityNormal:
		return c.degradeLevel - 1
	default:
		return c.degradeLevel
	}
}

// degradedRequest builds the brownout variant of a step request at the
// given level: top ladder rungs trimmed (Outputs are in ascending
// rung order), VP9-class downshifted to H.264-class, and — for batch
// work — the encoder speed raised. The original request is never
// mutated: once the brownout lifts, retries and new steps run the
// pristine full-quality request, leaving no degradation residue.
func degradedRequest(r *sched.StepRequest, level transcode.DegradeLevel, cls sched.Priority) *sched.StepRequest {
	out := *r
	outs := append([]video.Resolution(nil), r.Outputs...)
	if level >= transcode.DegradeTrim && len(outs) > 1 {
		outs = outs[:len(outs)-1]
	}
	if level >= transcode.DegradeFloor && len(outs) > 2 {
		outs = outs[:2]
	}
	out.Outputs = outs
	if level >= transcode.DegradeProfile && r.Profile != codec.H264Class {
		out.Profile = codec.H264Class
	}
	if cls == sched.PriorityBatch {
		out.SpeedBoost = true
	}
	return &out
}
