package cluster

import (
	"fmt"
	"time"

	"openvcu/internal/sched"
	"openvcu/internal/sim"
	"openvcu/internal/vcu"
)

// execution is one copy of a transcode step running on one worker's VCU
// through its firmware queue: one decode, then the output encodes, under
// a watchdog, a straggler hedge and, for a live step, the wall-floor
// gate. Its callbacks are its methods, bound once when the record is
// made, and records are recycled through the cluster's free list, so an
// execution allocates nothing.
//
// A record goes back to the list only when nothing can call into it
// again: it has finished, every op it submitted has reported to Done
// (an abort and a host crash report too; an op on a hung device never
// does, so its record is never reused), and its timers are stopped,
// which finish does.
type execution struct {
	c   *Cluster
	s   *Step
	cw  *clusterWorker
	a   *sched.Assignment
	req *sched.StepRequest
	// token is the step's generation at launch: the first copy to settle
	// the step (complete it, or requeue it after the last live copy
	// fails) bumps s.execGen, voiding its sibling — the losing copy still
	// releases its resources on its own completion or deadline, but
	// cannot re-settle the step.
	token int
	// gen is the worker's generation at launch: a restart under the
	// execution makes its result untrusted.
	gen       int
	isHedge   bool
	footprint int64
	startedAt time.Duration
	wallFloor time.Duration
	deadline  time.Duration

	finished bool
	// outstanding counts the submitted ops that have not reported yet.
	outstanding int
	// encodesLeft counts the encodes yet to report; encodeErr and
	// corrupt are what those that did (and the decode) reported.
	encodesLeft int
	encodeErr   error
	corrupt     bool

	decode  vcu.Op
	encodes []*vcu.Op
	// outPixels is the scratch JobFootprint reads the outputs from.
	outPixels []int64
	watchdog  sim.Timer
	hedge     sim.Timer
	floor     sim.Timer
}

// runTranscode executes one copy of the step's ops on the worker's VCU.
// The step's worst-case frame footprint is allocated from device DRAM up
// front — the hard limit the bin-packing DRAM dimension exists to
// respect (a single-slot scheduler can over-admit into this and fail
// here).
func (c *Cluster) runTranscode(s *Step, cw *clusterWorker, a *sched.Assignment, isHedge bool) {
	x := c.takeExecution()
	x.start(s, cw, a, isHedge)
	x.recycle()
}

// takeExecution returns a record from the free list, or a new one when
// the list is empty.
func (c *Cluster) takeExecution() *execution {
	if n := len(c.free); n > 0 {
		x := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		if c.execProbe != nil {
			c.execProbe(x)
		}
		return x
	}
	x := &execution{c: c}
	x.decode.Kind = vcu.OpDecode
	x.decode.Done = x.decodeDone
	x.watchdog.Bind(x.watchdogFired)
	x.hedge.Bind(x.hedgeDue)
	x.floor.Bind(x.floorReached)
	return x
}

// recycle returns x to the free list once nothing can call into it.
// Every entry point ends with it.
func (x *execution) recycle() {
	if !x.finished || x.outstanding > 0 {
		return
	}
	x.s, x.cw, x.a, x.req, x.encodeErr = nil, nil, nil, nil, nil
	x.c.free = append(x.c.free, x)
}

func (x *execution) start(s *Step, cw *clusterWorker, a *sched.Assignment, isHedge bool) {
	c := x.c
	req := s.execReq
	x.s, x.cw, x.a, x.req, x.isHedge = s, cw, a, req, isHedge
	x.token, x.gen = s.execGen, cw.generation
	x.finished = false

	x.outPixels = x.outPixels[:0]
	for _, o := range req.Outputs {
		x.outPixels = append(x.outPixels, int64(o.Pixels()))
	}
	x.footprint = c.cfg.Params.JobFootprint(int64(req.InputRes.Pixels()), x.outPixels)
	if err := cw.vcu.AllocMemory(x.footprint); err != nil {
		x.finished = true
		c.Stats.MemoryExhaustions++
		c.release(cw, a)
		c.execFailed(s, cw, err)
		return
	}
	if c.cfg.WatchdogMultiplier > 0 {
		x.deadline = c.stepDeadline(s)
		c.Eng.Reset(&x.watchdog, x.deadline)
	}
	if !isHedge && c.cfg.HedgeMultiplier > 0 {
		c.Eng.Reset(&x.hedge, c.hedgeDelay(s))
	}
	// Live steps pace at the chunk's wall duration: completion cannot
	// fire before the stream has actually played out.
	x.startedAt = c.Eng.Now()
	x.wallFloor = 0
	if req.Realtime && req.FPS > 0 {
		x.wallFloor = chunkWall(req)
	}
	x.decode.Mode = req.Mode
	x.decode.Pixels = int64(req.Frames()) * int64(req.InputRes.Pixels())
	x.submit(&x.decode)
}

// submit hands op to the worker's queue; a refusal finishes the
// execution.
func (x *execution) submit(op *vcu.Op) bool {
	if err := x.cw.submit(op); err != nil {
		x.finish(err, false)
		return false
	}
	x.outstanding++
	return true
}

func (x *execution) decodeDone(err error, corrupted bool) {
	x.outstanding--
	if err != nil {
		x.finish(err, false)
	} else {
		x.encodeAll(corrupted)
	}
	x.recycle()
}

// encodeAll submits one encode per output. It runs even after a deadline
// finished the execution: the device still does the work.
func (x *execution) encodeAll(corrupted bool) {
	req := x.req
	x.encodesLeft, x.encodeErr, x.corrupt = len(req.Outputs), nil, corrupted
	if x.encodesLeft == 0 {
		x.gated()
		return
	}
	frames := int64(req.Frames())
	for i, out := range req.Outputs {
		encPixels := frames * int64(out.Pixels())
		if req.SpeedBoost {
			// The raised encoder speed processes the same pixels in
			// less core time; model it as a smaller op.
			encPixels = int64(float64(encPixels) / sched.SpeedBoostFactor)
		}
		if i == len(x.encodes) {
			x.encodes = append(x.encodes, &vcu.Op{Kind: vcu.OpEncode, Done: x.encodeDone})
		}
		op := x.encodes[i]
		op.Profile, op.Mode, op.Pixels = req.Profile, req.Mode, encPixels
		if !x.submit(op) {
			return
		}
	}
}

func (x *execution) encodeDone(err error, corrupted bool) {
	x.outstanding--
	if err != nil {
		x.encodeErr = err
	}
	x.corrupt = x.corrupt || corrupted
	if x.encodesLeft--; x.encodesLeft == 0 {
		x.gated()
	}
	x.recycle()
}

// gated finishes with what the encodes reported, holding a success back
// until the chunk's wall duration has passed.
func (x *execution) gated() {
	if x.finished {
		return
	}
	if elapsed := x.c.Eng.Now() - x.startedAt; x.encodeErr == nil && elapsed < x.wallFloor {
		x.c.Eng.Reset(&x.floor, x.wallFloor-elapsed)
		return
	}
	x.finish(x.encodeErr, x.corrupt)
}

func (x *execution) floorReached() {
	x.finish(nil, x.corrupt)
	x.recycle()
}

// watchdogFired expires the execution's deadline. It fires even for a
// voided copy: a hung loser would otherwise hold its reservation and
// DRAM forever.
func (x *execution) watchdogFired() {
	x.c.Stats.WatchdogFires++
	x.cw.vcu.ChargeTimeout()
	x.finish(fmt.Errorf("%w after %v (vcu %d)",
		vcu.ErrDeadlineExceeded, x.deadline, x.cw.vcu.ID), false)
	x.recycle()
}

func (x *execution) hedgeDue() { x.c.maybeHedge(x.s, x.token, x.cw.vcu.ID) }

// finish ends the execution once: it stops the timers, gives back the
// DRAM and the reservation, and settles the step unless a sibling did.
func (x *execution) finish(err error, corrupted bool) {
	if x.finished {
		return
	}
	x.finished = true
	c, s, cw := x.c, x.s, x.cw
	c.Eng.Stop(&x.watchdog)
	c.Eng.Stop(&x.hedge)
	c.Eng.Stop(&x.floor)
	cw.vcu.FreeMemory(x.footprint)
	c.release(cw, x.a)
	if s.execGen != x.token {
		// A sibling already settled the step; this copy only had to
		// give back its resources.
		return
	}
	if x.gen != cw.generation && err == nil {
		err = fmt.Errorf("%w (vcu %d)", errWorkerRestart, cw.vcu.ID)
	}
	if err != nil {
		c.execFailed(s, cw, err)
		return
	}
	if corrupted && s.liveExecs > 1 && c.rand() < c.cfg.IntegrityCheckProb {
		// Verification-aware settlement: corrupted ops complete
		// fast, so under pure first-wins they systematically beat
		// their healthy sibling and launder corruption into hedge
		// winners. A first-finisher that fails the settlement-time
		// integrity screen yields to the still-running copy instead
		// of settling (the screen is the same imperfect check as
		// completion's, so some corruption still slips past to the
		// assembly and audit layers).
		s.liveExecs--
		c.Stats.HedgesVetoed++
		return
	}
	s.execGen++ // settle: void the sibling
	s.liveExecs = 0
	s.hedgeWon = x.isHedge
	if x.isHedge {
		c.Stats.HedgesWon++
	}
	c.completeStep(s, cw, corrupted)
	c.dispatch()
}
