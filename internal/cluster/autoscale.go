package cluster

import (
	"time"

	"openvcu/internal/transcode"
)

// This file is the saturation-driven autoscaler (ROADMAP item 1): a
// closed collector → analyzer → optimizer → actuator loop that sizes
// the active worker park to the arrival rate instead of leaving it
// statically provisioned for peak. Each AutoscalePeriod the collector
// samples queue depth, offered and completed step rates, and busy
// workers; the analyzer (capmodel.go) folds them into an M/M/1/k-style
// capacity model; the optimizer asks the model how many workers hold
// the SLO at the current rate; and the actuator resizes the park
// through the sched grow/shrink primitives — drain-before-remove so
// in-flight steps finish, scale-from-zero with a warmup penalty for
// cold pools, capped step sizes, and a hysteresis band plus a priority
// protocol against the brownout controller so the two loops sharing
// the backlog signal never fight each other:
//
//   - while the brownout controller is degrading (level > none), the
//     autoscaler never scales *down* — shrinking a park the brownout is
//     already rationing would deepen the brownout, which would lower
//     the backlog, which would invite another shrink: the oscillation
//     this protocol exists to kill. Scale-*up* stays allowed (growth is
//     the cure the brownout is waiting for).
//   - while an autoscaler resize is in flight (drains or warmups
//     pending), the brownout controller never *raises* its level — the
//     backlog transient is the resize's own doing, already being acted
//     on. Lowering (restoring quality) stays allowed.
//
// Every suppressed move is counted in ConflictTicks; a direction
// reversal within the flip guard window is counted in Flips. The
// controller-interaction game-day asserts Flips stays zero.

// flipGuardTicks is the window (in control ticks) within which a resize
// in the opposite direction of the previous one counts as an
// oscillation flip. Strictly below downStableTicks, so a
// shrink that honored the full hysteresis persistence can never be
// misread as oscillation.
const flipGuardTicks = 2

// AutoscaleConfig parameterizes the capacity control loop. The zero
// value (Period == 0) disables it entirely: the park stays statically
// provisioned, exactly the pre-autoscale behavior.
type AutoscaleConfig struct {
	// Period is the control interval; 0 disables the autoscaler.
	Period time.Duration
	// MinWorkers floors the active park. 0 allows scale-to-zero: an
	// idle park parks every worker and pays a cold start (ColdStarts,
	// Warmup) when demand returns.
	MinWorkers int
	// InitialWorkers is the park size at t=0; 0 defaults to MinWorkers.
	InitialWorkers int
	// TargetUtilization is the steady-state design point ρ* = λ/(n·μ)
	// the optimizer sizes for (default 0.7). Lower targets buy SLO
	// headroom with idle capacity — the knob the cost-vs-SLO frontier
	// sweeps. The gap down to lowUtilization is the hysteresis band:
	// between them the park holds.
	TargetUtilization float64
	// Warmup is the cold-start penalty: a newly activated worker
	// refuses work for this long (its capacity is committed — and
	// billed — but not yet serving). 0 activates instantly.
	Warmup time.Duration
	// OracleRatePerHour, when set, replaces the analyzer's λ estimate
	// with the true step arrival rate at the current sim time — the
	// oracle-provisioned baseline of the frontier experiments. Oracle
	// mode bypasses hysteresis, step caps, warmup and the brownout
	// protocol: it is perfect provisioning, not a deployable policy.
	OracleRatePerHour func(time.Duration) float64
}

const (
	// lowUtilization is the scale-down band: the park only shrinks
	// while measured utilization sits at or below this.
	lowUtilization = 0.45
	// scaleUpStep / scaleDownStep cap workers moved per tick: growth
	// reacts faster than shrink, the classic fast-attack/slow-decay
	// asymmetry.
	scaleUpStep   = 4
	scaleDownStep = 2
	// downStableTicks is how many consecutive low-utilization ticks
	// must pass before the first shrink — the temporal half of the
	// hysteresis.
	downStableTicks = 3
	// burndownPeriods is how fast the optimizer wants excess backlog
	// absorbed, in control periods: it adds backlog/(μ·window) workers
	// beyond steady state.
	burndownPeriods = 4
	// modelGain is the capacity model's EWMA gain.
	modelGain = 0.3
)

// DefaultAutoscaleConfig returns production-like control settings: a
// 30s loop sized for ρ*=0.7 and a 60s cold-start warmup.
func DefaultAutoscaleConfig() AutoscaleConfig {
	return AutoscaleConfig{
		Period:            30 * time.Second,
		MinWorkers:        1,
		TargetUtilization: 0.7,
		Warmup:            time.Minute,
	}
}

// AutoscaleStats counts control-loop outcomes. Flat and ==-comparable
// like the rest of Stats; fields marked "gauge" hold the latest value
// and aggregate by max in Accumulate, everything else is a counter and
// sums.
type AutoscaleStats struct {
	// Ticks counts control iterations.
	Ticks int64
	// ScaleUps / ScaleDowns count resize events (a multi-worker step is
	// one event); WorkersActivated / WorkersRetired count the workers
	// they moved.
	ScaleUps         int64
	ScaleDowns       int64
	WorkersActivated int64
	WorkersRetired   int64
	// DrainsStarted counts shrinks that found in-flight work and had to
	// drain; DrainsCancelled counts drains reversed by a scale-up before
	// they retired (the cheapest possible grow: the worker is still warm).
	DrainsStarted   int64
	DrainsCancelled int64
	// ColdStarts counts scale-ups that grew an empty (zero-active) park.
	ColdStarts int64
	// ConflictTicks counts moves a controller suppressed under the
	// autoscaler×brownout priority protocol.
	ConflictTicks int64
	// Flips counts resize direction reversals inside the flip guard
	// window — the oscillation detector. The game-day asserts zero.
	Flips int64
	// ActiveWorkerTicks integrates powered workers (active + draining)
	// over ticks — the cost integral of the frontier experiments:
	// cost = ActiveWorkerTicks × Period.
	ActiveWorkerTicks int64
	// ActiveWorkers (gauge) is the current active park size.
	ActiveWorkers int64 `stat:"max"`
	// PendingDrains (gauge) is how many workers are draining out.
	PendingDrains int64 `stat:"max"`
	// ModelResidualPPM (gauge) is the capacity model's backlog-fit
	// residual (see CapacityModel.UpdateResidual).
	ModelResidualPPM int64 `stat:"max"`
	// RebalanceStandDowns counts pool-rebalancer sweeps that skipped a
	// pool because an autoscaler drain was in flight there — the two
	// worker-moving mechanisms never thrash the same pool in one tick.
	RebalanceStandDowns int64
}

// autoscaler is the control loop's mutable state on a Cluster.
type autoscaler struct {
	cfg   AutoscaleConfig
	model *CapacityModel
	// draining lists workers mid drain-before-remove in the order their
	// drains began — the order a scale-up reclaims them and a tick reaps
	// them. Whether a worker is draining is its phase's to say, not this
	// list's.
	draining []*clusterWorker
	// lowTicks counts consecutive ticks in the scale-down band.
	lowTicks int
	// lastDir / lastMoveTick drive the flip detector.
	lastDir      int
	lastMoveTick int64
	// lastOffered / lastCompleted are the collector's delta baselines.
	lastOffered   int64
	lastCompleted int64
}

// oracle reports whether the loop runs as the prescient baseline.
func (as *autoscaler) oracle() bool { return as.cfg.OracleRatePerHour != nil }

// setupAutoscale arms the control loop: parks the surplus above the
// initial size (highest worker IDs first, keeping the first-fit-packed
// low IDs hot) and schedules the recurring tick. Called from
// buildCluster when cfg.Autoscale.Period > 0.
func (c *Cluster) setupAutoscale() {
	acfg := c.cfg.Autoscale
	if acfg.Period <= 0 {
		return
	}
	if acfg.TargetUtilization <= 0 || acfg.TargetUtilization > 1 {
		acfg.TargetUtilization = 0.7
	}
	c.as = &autoscaler{
		cfg: acfg,
		model: NewCapacityModel(modelGain, c.cfg.StepTargetSeconds,
			c.cfg.Overload.MaxQueueLen),
	}
	initial := acfg.InitialWorkers
	if initial <= 0 {
		initial = acfg.MinWorkers
	}
	// Initial provisioning is not a resize: park the surplus silently.
	active := 0
	for _, cw := range c.workers {
		if active < initial {
			active++
			continue
		}
		cw.sw.BeginDrain()
		cw.sw.TryRetire() // idle at t=0: retires immediately
	}
	c.every(acfg.Period, c.autoscaleTick)
}

// provisionedWorkers counts the active park: healthy workers the
// autoscaler has in service (warming workers count — their capacity is
// committed; draining workers do not — they are on the way out).
func (c *Cluster) provisionedWorkers() int { return c.census().provisioned() }

// autoscaleTick is one control iteration: reap finished drains, collect
// a sample, update the model, size the park, and actuate under the
// hysteresis bands and the brownout priority protocol.
func (c *Cluster) autoscaleTick() {
	as := c.as
	as.reapDrains(&c.Stats.Autoscale)
	st := &c.Stats.Autoscale
	st.Ticks++

	// Collector: per-window deltas of offered and completed steps.
	period := as.cfg.Period.Seconds()
	var offered, completed int64
	for i := range c.Stats.Classes {
		offered += c.Stats.Classes[i].Admitted + c.Stats.Classes[i].Shed
		completed += c.Stats.Classes[i].Completed
	}
	pc := c.census()
	sample := CapacitySample{
		OfferedPerSec:   float64(offered-as.lastOffered) / period,
		CompletedPerSec: float64(completed-as.lastCompleted) / period,
		BusyWorkers:     int(pc.busy[0] + pc.busy[1]),
		Backlog:         c.eligibleBacklog(),
	}
	as.lastOffered, as.lastCompleted = offered, completed

	// Analyzer: fold the sample into the model (μ always learns from
	// observation; λ comes from the trace in oracle mode).
	as.model.Observe(sample)
	if as.oracle() {
		as.model.SetArrivalRate(as.cfg.OracleRatePerHour(c.Eng.Now()) / 3600)
	}

	// Optimizer: workers needed at the target utilization, plus
	// burn-down capacity for the current backlog transient.
	provisioned := pc.provisioned()
	desired := as.model.RequiredWorkers(as.cfg.TargetUtilization,
		sample.Backlog, (burndownPeriods * as.cfg.Period).Seconds())
	if desired < as.cfg.MinWorkers {
		desired = as.cfg.MinWorkers
	}
	desired = min(desired, len(c.workers))
	st.ModelResidualPPM = as.model.UpdateResidual(provisioned, sample.Backlog)

	// Actuator, under the priority protocol and hysteresis bands. A
	// move opposite to a resize still inside the flip guard window is
	// damped outright (the temporal hysteresis that makes Flips == 0 an
	// invariant, not a hope): reversing a fresh resize means the
	// controller is reacting to its own transient, not to demand.
	cooldown := func(dir int) bool {
		return !as.oracle() && as.lastDir == -dir &&
			st.Ticks-as.lastMoveTick <= flipGuardTicks
	}
	switch {
	case desired > provisioned:
		as.lowTicks = 0
		if cooldown(+1) {
			break
		}
		step := desired - provisioned
		if !as.oracle() && step > scaleUpStep {
			step = scaleUpStep
		}
		c.scaleUp(step)
	case desired < provisioned:
		if !as.oracle() && c.degradeLevel > transcode.DegradeNone {
			// Priority protocol: the brownout controller is degrading —
			// shrinking now would fight it. Back off.
			st.ConflictTicks++
			as.lowTicks = 0
			break
		}
		if as.oracle() {
			c.scaleDown(provisioned - desired)
			break
		}
		util := 1.0
		if provisioned > 0 && as.model.ServiceRate() > 0 {
			util = as.model.ArrivalRate() / (float64(provisioned) * as.model.ServiceRate())
		}
		if util > lowUtilization {
			// Inside the hysteresis band: hold.
			as.lowTicks = 0
			break
		}
		as.lowTicks++
		if as.lowTicks < downStableTicks || cooldown(-1) {
			break
		}
		as.lowTicks = 0
		step := provisioned - desired
		if step > scaleDownStep {
			step = scaleDownStep
		}
		c.scaleDown(step)
	default:
		as.lowTicks = 0
	}

	// Cost integral and gauges: powered = active + still-draining.
	pc = c.census()
	st.ActiveWorkerTicks += int64(pc.provisioned() + pc.drains)
	st.ActiveWorkers = int64(pc.provisioned())
	st.PendingDrains = int64(pc.drains)
	pc.setUtilization(&c.Stats)
	c.dispatch()
}

// reapDrains retires drained workers whose in-flight work has finished.
func (as *autoscaler) reapDrains(st *AutoscaleStats) {
	var still []*clusterWorker
	for _, cw := range as.draining {
		if cw.sw.TryRetire() {
			st.WorkersRetired++
			continue
		}
		still = append(still, cw)
	}
	as.draining = still
}

// noteResize records a resize direction for the flip detector.
func (as *autoscaler) noteResize(dir int, st *AutoscaleStats) {
	if as.oracle() {
		return // the oracle has no hysteresis and is not a deployable policy
	}
	if as.lastDir != 0 && dir != as.lastDir && st.Ticks-as.lastMoveTick <= flipGuardTicks {
		st.Flips++
	}
	as.lastDir = dir
	as.lastMoveTick = st.Ticks
}

// scaleUp grows the active park by up to k workers: draining workers
// are reclaimed first (still warm, no cold-start), then parked healthy
// workers are activated lowest-ID first, paying the warmup penalty.
// Growing an empty park counts a cold start.
func (c *Cluster) scaleUp(k int) {
	if k <= 0 {
		return
	}
	as := c.as
	st := &c.Stats.Autoscale
	wasEmpty := c.provisionedWorkers() == 0
	moved := 0
	// Reclaim drains first, oldest first.
	for ; moved < k && len(as.draining) > 0; moved++ {
		as.draining[0].sw.CancelDrain()
		c.roomMade(as.draining[0])
		as.draining = as.draining[1:]
		st.DrainsCancelled++
	}
	for _, cw := range c.workers {
		if moved >= k {
			break
		}
		if !cw.activatable() {
			continue
		}
		cold := as.cfg.Warmup > 0 && !as.oracle()
		cw.sw.Activate(cold)
		c.roomMade(cw)
		st.WorkersActivated++
		moved++
		if cold {
			cw.warmUntil = c.Eng.Now() + as.cfg.Warmup
			c.Eng.Schedule(as.cfg.Warmup, func() { c.endWarmup(cw) })
		}
	}
	if moved == 0 {
		return
	}
	st.ScaleUps++
	if wasEmpty {
		st.ColdStarts++
	}
	as.noteResize(+1, st)
}

// scaleDown shrinks the active park by up to k workers, highest ID
// first: idle workers retire immediately; busy ones begin a
// drain-before-remove and retire once their in-flight steps finish.
func (c *Cluster) scaleDown(k int) {
	if k <= 0 {
		return
	}
	as := c.as
	st := &c.Stats.Autoscale
	moved := 0
	// Two passes: idle workers first (instant, no drain), then busy
	// ones (drain-before-remove).
	for pass := 0; pass < 2 && moved < k; pass++ {
		for i := len(c.workers) - 1; i >= 0 && moved < k; i-- {
			cw := c.workers[i]
			if !cw.inPark() {
				continue
			}
			idle := cw.sw.Idle()
			if pass == 0 && !idle {
				continue
			}
			cw.sw.BeginDrain()
			if cw.sw.TryRetire() {
				st.WorkersRetired++
			} else {
				as.draining = append(as.draining, cw)
				st.DrainsStarted++
			}
			moved++
		}
	}
	if moved == 0 {
		return
	}
	st.ScaleDowns++
	as.noteResize(-1, st)
}
