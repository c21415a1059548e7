package cluster

import (
	"fmt"

	"openvcu/internal/sched"
	"openvcu/internal/vcu"
)

// This file is the worker lifecycle: the one place that stores, moves
// and reads worker state (DESIGN.md "Worker lifecycle" has the tables).
// A worker stands on three independent axes — capacity (sched.Phase, on
// sched.Worker), health and trust (below). Each axis changes only
// through a transition function that looks the move up in a declared
// table and panics on a pair the table does not list, and every "may
// this worker…" question the control loops ask is one of the four
// eligibility functions at the end.

// health is a worker's place in the §4.4 fleet-health workflow.
type health uint8

const (
	// healthScreening: a worker process not yet screened on its device —
	// a new worker, or a readmitted host's before its golden tasks run.
	// Screening is instantaneous on the sim clock; no placement sees it.
	healthScreening health = iota
	healthServing
	// healthRefused: failed golden screening; the VCU is quarantined
	// until fault management disables it.
	healthRefused
	// healthDeviceDown: device disabled (telemetry threshold, failed soak).
	healthDeviceDown
	// healthHostDown: host crashed or pulled, waiting for a repair slot.
	healthHostDown
	healthInRepair
)

func (h health) String() string {
	return [...]string{"screening", "serving", "refused", "device-down", "host-down", "in-repair"}[h]
}

// standing is a device's rung on the output auditor's trust ladder.
type standing uint8

const (
	trusted standing = iota
	// demoted: batch work only, which limits the blast radius of further
	// corruption to the most replayable class.
	demoted
	// convicted: serves nothing until the extended soak exonerates it or
	// condemns it to the repair pipeline.
	convicted
)

func (s standing) String() string { return [...]string{"trusted", "demoted", "convicted"}[s] }

// event names a move on the health or the trust axis.
type event string

const (
	evScreenPass event = "screen-pass"
	evScreenFail event = "screen-fail"
	evDisable    event = "disable"
	evCrash      event = "crash"
	evRepair     event = "repair"
	evReadmit    event = "readmit"

	evDemote    event = "demote"
	evRepromote event = "repromote"
	evConvict   event = "convict"
	evExonerate event = "exonerate"
	evNewBoard  event = "new-board"
)

// healthMoves is the health axis's transition table. Hardware also
// fails on its own (an injected fault, a test calling Disable); that is
// not an event here, it shows as a different answer from health().
var healthMoves = map[health]map[event]health{
	healthScreening: {evScreenPass: healthServing, evScreenFail: healthRefused},
	healthServing: {evScreenPass: healthServing, evScreenFail: healthRefused,
		evDisable: healthDeviceDown, evCrash: healthHostDown, evRepair: healthInRepair},
	healthRefused: {evScreenPass: healthServing, evScreenFail: healthRefused,
		evDisable: healthDeviceDown, evCrash: healthHostDown, evRepair: healthInRepair},
	// An abort-on-failure restart can land on a device disabled in the
	// meantime: screening runs (and is counted), the device stays down.
	healthDeviceDown: {evScreenPass: healthDeviceDown, evScreenFail: healthDeviceDown,
		evCrash: healthHostDown, evRepair: healthInRepair},
	healthHostDown: {evRepair: healthInRepair},
	healthInRepair: {evReadmit: healthScreening},
}

// trustMoves is the trust axis's transition table. A failed soak does
// not move it: the device is disabled (health axis) and stays convicted
// until repair replaces the board.
var trustMoves = map[standing]map[event]standing{
	trusted:   {evDemote: demoted, evConvict: convicted, evNewBoard: trusted},
	demoted:   {evRepromote: trusted, evConvict: convicted, evNewBoard: trusted},
	convicted: {evExonerate: trusted, evNewBoard: trusted},
}

// move looks one event up in an axis's table.
func move[S comparable](table map[S]map[event]S, cw *clusterWorker, from S, ev event) S {
	to, ok := table[from][ev]
	if !ok {
		panic(fmt.Sprintf("cluster: vcu %d: illegal transition %v --%s-->", cw.vcu.ID, from, ev))
	}
	return to
}

// hostHealth is the host-level part of health: healthServing for a host
// that is up, else host-down or in-repair.
func (c *Cluster) hostHealth(h *vcu.Host) health {
	switch {
	case c.inRepair[h.ID]:
		return healthInRepair
	case h.Disabled():
		return healthHostDown
	}
	return healthServing
}

// health folds the facts of the health axis, each stored once by its
// owner — the repair list on the cluster, power state on host and
// device, the screening verdict on the worker — into one value, the
// worst first.
func (c *Cluster) health(cw *clusterWorker) health {
	if hh := c.hostHealth(cw.host); hh != healthServing {
		return hh
	}
	if cw.vcu.Disabled() {
		return healthDeviceDown
	}
	return cw.screening
}

// powered reports whether cw's device and host are up, whatever
// screening said.
func (cw *clusterWorker) powered() bool { return !cw.vcu.Disabled() && !cw.host.Disabled() }

// up reports health == healthServing without consulting the repair list
// (a host in repair is always down), so the placement path pays loads
// and compares only.
func (cw *clusterWorker) up() bool { return cw.screening == healthServing && cw.powered() }

// screened records a golden-screening verdict for cw's worker process.
func (c *Cluster) screened(cw *clusterWorker, pass bool) {
	ev, verdict := evScreenFail, healthRefused
	if pass {
		ev, verdict = evScreenPass, healthServing
	}
	move(healthMoves, cw, c.health(cw), ev)
	cw.screening = verdict
	c.roomMade(cw)
}

// disableDevice takes cw's device out of service — where the fault
// scan's telemetry breaker and a failed soak both end; the repair
// lifecycle (faultScan → sendToRepair → readmitHost) owns it from here.
func (c *Cluster) disableDevice(cw *clusterWorker) {
	move(healthMoves, cw, c.health(cw), evDisable)
	cw.vcu.Disable()
	c.Stats.VCUsDisabled++
}

// deadVCUs counts a host's disabled devices.
func deadVCUs(h *vcu.Host) int {
	dead := 0
	for _, v := range h.VCUs {
		if v.Disabled() {
			dead++
		}
	}
	return dead
}

// HostsInRepair returns the number of hosts currently out for repair.
func (c *Cluster) HostsInRepair() int { return len(c.inRepair) }

// HealthyHosts counts hosts that are up and not in the repair workflow
// — the capacity-recovery signal the chaos invariants check.
func (c *Cluster) HealthyHosts() int {
	n := 0
	for _, h := range c.Hosts {
		if c.hostHealth(h) == healthServing {
			n++
		}
	}
	return n
}

// moveHost checks a host-level event against every worker on h.
func (c *Cluster) moveHost(h *vcu.Host, ev event) {
	for _, v := range h.VCUs {
		if cw := c.byVCU[v.ID]; cw != nil {
			move(healthMoves, cw, c.health(cw), ev)
		}
	}
}

// CrashHost fail-stops host idx at the current sim time — the §4.4
// host-level failure domain ("CPU, cables, chassis") taking all its
// VCUs down at once. In-flight ops on the host deliver
// vcu.ErrHostCrashed, pending ops abort, and the host stays dark until
// the fault scan claims a repair slot for it.
func (c *Cluster) CrashHost(idx int) {
	if idx < 0 || idx >= len(c.Hosts) || c.hostHealth(c.Hosts[idx]) != healthServing {
		return
	}
	c.moveHost(c.Hosts[idx], evCrash)
	c.Hosts[idx].Crash()
	c.Stats.HostsCrashed++
}

// sendToRepair pulls a host out of service into the §4.4 repair
// workflow. The teardown is a crash from the steps' perspective:
// pending ops abort, in-flight ops are lost. When RepairLatency is
// positive the host is readmitted after it elapses; zero models the
// pre-lifecycle behavior where repairs never return.
func (c *Cluster) sendToRepair(h *vcu.Host) {
	c.moveHost(h, evRepair)
	h.Crash()
	c.inRepair[h.ID] = true
	c.Stats.HostsSentToRepair++
	if c.cfg.RepairLatency > 0 {
		c.Eng.Schedule(c.cfg.RepairLatency, func() { c.readmitHost(h) })
	}
}

// readmitHost returns a repaired host to service: the repair slot is
// freed (this, not host death, is what keeps MaxHostsInRepair from
// permanently exhausting), every VCU is repaired and re-screened with
// the golden tasks, and worker capacity is re-registered with the
// scheduler. A VCU that fails re-screening — a persistent manufacturing
// escape repair cannot fix — stays quarantined (refused) while its
// healthy siblings serve. The capacity axis is not touched: a worker the
// autoscaler parked or is draining comes back parked or draining.
func (c *Cluster) readmitHost(h *vcu.Host) {
	c.moveHost(h, evReadmit)
	delete(c.inRepair, h.ID)
	c.Stats.HostsReadmitted++
	h.Enable()
	for _, v := range h.VCUs {
		v.Repair()
		cw := c.byVCU[v.ID]
		if cw == nil {
			continue
		}
		c.roomMade(cw) // host up, board repaired, capacity re-registered below
		// Repair replaces the board, so the audit record resets with the
		// hardware: trust restored, conviction spent, taint window gone.
		// A persistent intermittent escape will pass golden re-screening
		// and has to be convicted again — exactly the recidivism the
		// paper's continuous-health argument predicts.
		c.clearRecord(cw, evNewBoard)
		cw.screening = healthScreening
		cw.sw.ResetCapacity()
		if !c.startWorker(cw) {
			c.Stats.ReadmitRejections++
		}
	}
	c.dispatch()
}

// rescore walks the trust ladder after an audit moved cw's score: a
// clean audit can repromote a demoted device, a failed one can demote a
// trusted device or convict any not yet convicted.
func (c *Cluster) rescore(cw *clusterWorker, passed bool) {
	switch {
	case passed && cw.standing == demoted && cw.trust >= demoteTrust:
		cw.standing = move(trustMoves, cw, cw.standing, evRepromote)
		c.roomMade(cw)
		c.Stats.Audit.Repromotions++
	case !passed && cw.standing != convicted && cw.trust < convictTrust:
		cw.standing = move(trustMoves, cw, cw.standing, evConvict)
		c.convict(cw)
	case !passed && cw.standing == trusted && cw.trust < demoteTrust:
		cw.standing = move(trustMoves, cw, cw.standing, evDemote)
		c.Stats.Audit.Demotions++
	}
}

// clearRecord wipes cw's audit record — full trust, no soak credit, an
// empty taint window — on the event that earns it: exoneration by the
// soak, or a new board from repair.
func (c *Cluster) clearRecord(cw *clusterWorker, ev event) {
	cw.standing = move(trustMoves, cw, cw.standing, ev)
	c.roomMade(cw)
	cw.trust = 1
	cw.soakPasses = 0
	cw.produced = nil
}

// soaking reports whether cw is a convicted device the extended soak
// can still probe (a disabled device or dark host belongs to repair).
func (cw *clusterWorker) soaking() bool { return cw.standing == convicted && cw.powered() }

// ConvictedVCUs returns the IDs of currently-convicted devices in ID
// order — the game-day's zero-false-convictions assertion surface.
func (c *Cluster) ConvictedVCUs() []int {
	var ids []int
	for _, cw := range c.workers {
		if cw.standing == convicted {
			ids = append(ids, cw.vcu.ID)
		}
	}
	return ids
}

// endWarmup fires when a cold activation's warm-up elapses. A worker
// parked meanwhile abandoned that warm-up, and if it was activated
// again the later deadline is the one that counts.
func (c *Cluster) endWarmup(cw *clusterWorker) {
	if cw.sw.Phase() == sched.PhaseWarming && c.Eng.Now() >= cw.warmUntil {
		cw.sw.EndWarmup()
		c.roomMade(cw)
	}
	c.dispatch()
}

// The eligibility functions. Every one requires health serving; phase
// and standing decide the rest.

// places reports whether a step of class cls bound for pool may be
// placed on cw: a trusted device serves every class, a demoted one only
// batch, a convicted one nothing, and the pool must match.
// place asks it of every worker with room on every first-fit walk, so
// it is loads and compares only; the phase half of the answer (serving)
// is sched.Worker.CanReserve's.
func (c *Cluster) places(cw *clusterWorker, cls sched.Priority, pool sched.UseCase) bool {
	return cw.up() && (cw.standing == trusted || cw.standing == demoted && cls == sched.PriorityBatch) &&
		(!c.cfg.EnablePools || cw.pool == pool)
}

// accepting reports whether the worker could take a reservation right
// now: phase serving, standing not convicted. It is the brownout load
// signal's denominator — so capacity loss (chaos, repair, an autoscaler
// shrink) raises the signal exactly like a demand spike does — and the
// pool rebalancer's donor test.
func (cw *clusterWorker) accepting() bool {
	return cw.up() && cw.standing != convicted && cw.sw.Phase() == sched.PhaseServing
}

// inPark reports whether the worker is in the autoscaler's active park:
// serving or warming (its capacity is committed), not draining (on the
// way out), whatever its standing. The park census and the shrink
// candidates.
func (cw *clusterWorker) inPark() bool {
	ph := cw.sw.Phase()
	return cw.up() && (ph == sched.PhaseServing || ph == sched.PhaseWarming)
}

// activatable reports whether a scale-up may bring the worker into the
// park.
func (cw *clusterWorker) activatable() bool { return cw.up() && cw.sw.Phase() == sched.PhaseParked }

// parkCensus is one pass over the workers for everything the control
// loops count: per pool (sched.UseCase) the workers in the park and
// those of them holding work, the workers accepting, and the resizes
// still settling.
type parkCensus struct {
	total, busy     [2]int64
	drainPools      [2]bool // pools with a drain in flight
	drains, warmups int
	accepting       int
}

func (c *Cluster) census() parkCensus {
	var pc parkCensus
	for _, cw := range c.workers {
		switch cw.sw.Phase() {
		case sched.PhaseDraining:
			pc.drains++
			pc.drainPools[cw.pool] = true
		case sched.PhaseWarming:
			pc.warmups++
		}
		if cw.accepting() {
			pc.accepting++
		}
		if cw.inPark() {
			pc.total[cw.pool]++
			if !cw.sw.Idle() {
				pc.busy[cw.pool]++
			}
		}
	}
	return pc
}

// provisioned is the size of the active park.
func (pc parkCensus) provisioned() int { return int(pc.total[0] + pc.total[1]) }

// resizing reports whether a resize is still settling — drains pending
// or warm-ups running. The brownout controller holds its level up-moves
// while this is true.
func (pc parkCensus) resizing() bool { return pc.drains > 0 || pc.warmups > 0 }

// setUtilization writes the per-pool utilization gauges: busy in-park
// workers over in-park workers, in PPM (with pools disabled everything
// counts as the upload pool).
func (pc parkCensus) setUtilization(st *Stats) {
	for i, total := range pc.total {
		st.PoolUtilPPM[i] = 0
		if total > 0 {
			st.PoolUtilPPM[i] = pc.busy[i] * 1e6 / total
		}
	}
}
