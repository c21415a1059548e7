// Package cluster implements the cluster-level control plane of the video
// processing platform (paper §2.2, §3.3.3, §4.4): a global work queue of
// step dependency graphs, dispatch onto VCU workers through the
// multi-dimensional bin-packing scheduler, chunk fan-out and assembly,
// retry on failure (another VCU, then software), and failure management —
// telemetry-driven VCU disabling, capped repair queues, golden-task
// screening and black-holing mitigation.
//
// The cluster runs entirely inside a sim.Engine, so experiments are
// deterministic and fast.
package cluster

import (
	"errors"
	"math"
	"time"

	"openvcu/internal/codec"
	"openvcu/internal/sched"
	"openvcu/internal/sim"
	"openvcu/internal/transcode"
	"openvcu/internal/vcu"
)

// Cluster-level failure classes (device-level classes live in
// internal/vcu as typed errors the cluster matches with errors.Is).
var (
	// errWorkerRestart marks a step whose worker process restarted
	// underneath it (§4.4 abort-on-failure): the result is untrusted.
	errWorkerRestart = errors.New("cluster: worker restarted under step")
	// errIntegrity marks a chunk caught by the high-level integrity
	// checks of §4.4.
	errIntegrity = errors.New("cluster: chunk failed integrity verification")
	// errRecalled marks a completed-but-unshipped step voided by the
	// output auditor — either its own audit failed, or its producing
	// device was convicted and its taint window recalled.
	errRecalled = errors.New("cluster: step recalled by output audit")
)

// StepKind is the type of work a step performs. Transcoding runs on VCU
// workers; the other kinds are the CPU work of §3.3.3 ("thumbnail
// extraction, generating search signals, fingerprinting, notifications").
type StepKind int

// Step kinds.
const (
	StepTranscode StepKind = iota
	StepThumbnail
	StepFingerprint
	StepNotify
	StepAssemble
)

// StepState is a step's lifecycle state.
type StepState int

// Step states.
const (
	StepPending StepState = iota
	StepReady
	StepRunning
	StepDone
	StepFailed
	// StepShed is the overload terminal state: the step was rejected or
	// evicted by admission control, cancelled because its graph was shed,
	// or dropped as a live chunk past its usefulness window. Dependents
	// treat a shed dependency as satisfied so a live stream can skip a
	// dropped chunk and continue.
	StepShed
)

// Step is one node in a video's work graph.
type Step struct {
	ID      int
	Kind    StepKind
	Request *sched.StepRequest
	Deps    []*Step

	State    StepState
	Attempts int
	// triedVCUs are devices this step failed on: excluded from placement
	// (§4.4 "retried at the cluster level ... assigned to a different
	// VCU"). Nil until the first failure; written through tried.
	triedVCUs map[int]bool
	// RanOnVCU records where the step executed, "for fault correlation".
	RanOnVCU []int
	// escapeCounted dedupes escaped-corruption accounting.
	escapeCounted bool
	// execGen increments whenever the step settles (completes or is
	// requeued); executions launched under an older generation are void
	// — the coordination point between a primary, its hedge and their
	// watchdogs.
	execGen int
	// liveExecs counts running copies of the current generation: 1, or
	// 2 while a straggler hedge is in flight.
	liveExecs int
	// hedged marks that a hedge was launched for the current generation.
	hedged bool
	// hedgeWon marks that the winning execution was the hedge copy —
	// the auditor samples these at an elevated rate, because corrupted
	// ops complete fast and are over-represented among hedge winners.
	hedgeWon bool
	// completedAt/completedOn record the completing time and device of
	// a hardware transcode step, for audit sampling and taint windows.
	completedAt time.Duration
	completedOn int
	// audited marks the step's output as already re-verified by the
	// online auditor (once per completion; a recall clears it).
	audited bool
	// OverflowPlaced records that at least one placement of this step
	// fell outside its video's consistent-hash affinity set (the set
	// had no capacity). The chaos harness excludes such steps from the
	// strict blast-radius invariant.
	OverflowPlaced bool
	// Corrupted marks silent output corruption that escaped detection so
	// far (in real-pixels mode: the bitstream was actually tampered).
	Corrupted bool
	// Software marks execution on the CPU fallback path.
	Software bool
	// Degraded marks that the step's last execution ran a
	// brownout-degraded request (trimmed ladder, downshifted profile, or
	// raised speed) rather than its full-quality Request.
	Degraded bool
	// degradeCounted dedupes per-class Degraded accounting.
	degradeCounted bool
	// execReq is the request the current execution actually runs: Request
	// itself at full quality, or a brownout-degraded copy. Request is
	// never mutated, so once the brownout lifts retries run pristine.
	execReq *sched.StepRequest
	// blocked is set while the step waits for room after a placement
	// that found none; nil on every step that placed at its first try.
	blocked *blockedPlacement
	// admitted marks that the step passed admission once; admittedAt is
	// that first admission time, the epoch of the live usefulness window
	// (retries do not extend it).
	admitted   bool
	admittedAt time.Duration
	// eligibleAt is when the step may next be dispatched; steps parked in
	// retry backoff sit in the queue with eligibleAt in the future.
	eligibleAt time.Duration
	// Packets holds the step's real encoded output in real-pixels mode.
	Packets []codec.Packet

	graph *Graph
}

// tried records that s failed on device vcuID.
func (s *Step) tried(vcuID int) {
	if s.triedVCUs == nil {
		s.triedVCUs = map[int]bool{}
	}
	s.triedVCUs[vcuID] = true
}

// Graph is one video's acyclic task dependency graph (§2.2).
type Graph struct {
	ID    int
	Steps []*Step
	// Priority is the graph's admission/dispatch class: live streams are
	// critical, uploads normal, batch re-encodes batch. Under overload,
	// batch sheds and degrades first, live last (§2.2, §3.3.3). Fixed
	// from Submit on: a queued step sits in its class's slice.
	Priority sched.Priority
	// Shed marks a graph cancelled by admission control: its queued steps
	// were removed, in-flight results are discarded, and OnDone never
	// fires.
	Shed bool
	// OnDone fires when every step has completed.
	OnDone func(*Graph)
	remain int
	// affinity is the video's consistent-hash affinity set, computed at
	// its first placement (the ring never changes after buildCluster).
	affinity map[int]bool
}

// Corrupted reports whether any step carries undetected corruption — the
// §4.4 blast-radius condition.
func (g *Graph) Corrupted() bool {
	for _, s := range g.Steps {
		if s.Corrupted {
			return true
		}
	}
	return false
}

// Config parameterizes a Cluster.
type Config struct {
	Params vcu.Params
	//lint:ignore singleknob set from DefaultConfig(hosts)'s argument by every caller
	Hosts int
	// GoldenCheckOnStart runs golden transcoding tasks before a worker
	// accepts work on a VCU (§4.4 mitigation).
	GoldenCheckOnStart bool
	// AbortOnFailure makes a worker abort all VCU work on the first
	// hardware failure rather than keep grinding (§4.4 mitigation).
	AbortOnFailure bool
	// IntegrityCheckProb is the probability a corrupted chunk is caught
	// by the high-level integrity checks ("detect and prevent most
	// corruption" — most, not all).
	IntegrityCheckProb float64
	// MaxHostsInRepair caps simultaneous repairs "to protect against
	// faulty repair signals causing large scale capacity loss".
	MaxHostsInRepair int
	// DisableFaultThreshold is the telemetry fault count that disables a
	// VCU.
	DisableFaultThreshold int64
	// StepTargetSeconds is the nominal step latency target used by the
	// cost model.
	StepTargetSeconds float64
	// LegacySingleSlot replaces the multi-dimensional bin-packing cost
	// model with the prior "single slot per graph step" model (§3.3.3):
	// each VCU worker advertises a fixed slot count and every step costs
	// one slot regardless of its real resource shape. Exists for the
	// scheduler ablation experiments.
	LegacySingleSlot bool
	// LegacySlots is the slot count per worker in legacy mode (default 3).
	LegacySlots int
	// EnablePools splits the cluster's VCU workers into "upload" and
	// "live" logical pools (§3.3.3). Live steps only place on live-pool
	// workers and vice versa; a periodic rebalancer moves idle workers
	// toward the pool with backlog, "maximizing cluster-wide VCU
	// utilization".
	EnablePools bool
	// LiveShare is the initial fraction of VCUs in the live pool.
	LiveShare float64
	// RebalancePeriod is the pool-rebalancing sweep interval.
	RebalancePeriod time.Duration
	// ConsistentHashing places each video's chunks on a small per-video
	// affinity set of VCUs (the §4.4 future-work enhancement), bounding
	// how many videos one faulty device can touch.
	ConsistentHashing bool
	// AffinitySize is the per-video VCU set size (default 4).
	AffinitySize int
	// RealPixels runs actual encodes for transcode steps, actual byte
	// corruption for faulty VCUs, and actual decode/length verification
	// at assembly (replacing IntegrityCheckProb with emergent behavior).
	RealPixels bool
	// WatchdogMultiplier scales the cost model's expected step time
	// (sched.ExpectedStepSeconds) into a sim-time deadline for every
	// dispatched step. On expiry the step is cancelled, the timeout is
	// charged to the VCU's telemetry (counting toward its disable
	// threshold) and the step is requeued with backoff. 0 disables the
	// watchdog — and with it the only recovery path from FaultHang.
	WatchdogMultiplier float64
	// HedgeMultiplier, when > 0, launches a second copy of a
	// still-running step once it has been in flight for this multiple
	// of its expected time (the p99-equivalent straggler hedge). First
	// completion wins; the loser's result is discarded.
	HedgeMultiplier float64
	// RetryBackoffBase is the requeue delay after a step's first
	// failure; attempt n waits Base<<(n-1), capped at retryBackoffMax.
	// 0 requeues immediately.
	RetryBackoffBase time.Duration
	// RepairLatency is how long a host spends in the §4.4 repair
	// workflow before readmission. A repaired host re-runs golden
	// screening per VCU before its capacity rejoins the scheduler. 0
	// means repairs never return (the pre-lifecycle behavior).
	RepairLatency time.Duration
	// Overload configures admission control, deadline drops, the
	// brownout controller and the hedge backlog guard. The zero value
	// disables all of them (the pre-overload unbounded queue).
	Overload OverloadConfig
	// Autoscale configures the closed-loop capacity controller that
	// resizes the active worker park to the arrival rate. The zero
	// value (Period == 0) disables it: the park stays statically
	// provisioned.
	Autoscale AutoscaleConfig
	// Audit configures the online output auditor — the continuous
	// fleet-health layer of §4.4 that catches what admission screening
	// cannot (intermittent silent corruption). The zero value
	// (Budget == 0) disables it.
	Audit AuditConfig
	// Seed drives the deterministic pseudo-random integrity sampling.
	Seed uint64
}

const (
	// faultScanPeriod is the failure-management sweep interval.
	faultScanPeriod = 30 * time.Second
	// retryBackoffMax caps the exponential requeue backoff.
	retryBackoffMax = 30 * time.Second
)

// DefaultConfig returns a production-like configuration with all §4.4
// mitigations enabled.
func DefaultConfig(hosts int) Config {
	return Config{
		Params:                vcu.DefaultParams(),
		Hosts:                 hosts,
		GoldenCheckOnStart:    true,
		AbortOnFailure:        true,
		IntegrityCheckProb:    0.9,
		MaxHostsInRepair:      2,
		DisableFaultThreshold: 8,
		StepTargetSeconds:     10,
		WatchdogMultiplier:    8,
		RetryBackoffBase:      500 * time.Millisecond,
		RepairLatency:         30 * time.Minute,
		Seed:                  1,
	}
}

// Stats counts cluster-level outcomes. The struct is flat and
// comparable: the chaos harness asserts two runs with the same seed
// produce identical Stats with ==. Every leaf is an int64; Accumulate
// sums them across clusters, except the gauges tagged `stat:"max"`.
type Stats struct {
	StepsCompleted     int64
	StepsFailed        int64
	Retries            int64
	SoftwareFallbacks  int64
	AffinityOverflows  int64
	MemoryExhaustions  int64
	CorruptionsCaught  int64
	CorruptionsEscaped int64
	VCUsDisabled       int64
	HostsSentToRepair  int64
	RepairsDeferred    int64
	GoldenRejections   int64
	WorkerAborts       int64
	PoolRebalances     int64
	// WatchdogFires counts step deadlines expired by the watchdog.
	WatchdogFires int64
	// HedgesLaunched/HedgesWon count straggler hedges and the cases
	// where the hedge finished before the primary.
	HedgesLaunched int64
	HedgesWon      int64
	// HostsCrashed counts host-level failures (§4.4 chassis/CPU/cable).
	HostsCrashed int64
	// HostsReadmitted counts hosts returned from the repair workflow;
	// ReadmitRejections counts VCUs that failed golden re-screening at
	// readmission and stayed quarantined.
	HostsReadmitted   int64
	ReadmitRejections int64
	// GraphsShed counts whole videos cancelled by admission control.
	GraphsShed int64
	// BrownoutUps/BrownoutDowns count brownout controller level moves.
	BrownoutUps   int64
	BrownoutDowns int64
	// HedgesSuppressed counts straggler hedges skipped by the backlog
	// guard (a hedge must not amplify an overload).
	HedgesSuppressed int64
	// HedgesVetoed counts hedge settlements where a corrupted
	// first-finisher was caught by the verification-aware settlement
	// check and yielded to its still-running sibling — the fix for
	// fast-corruption laundering through first-wins hedging.
	HedgesVetoed int64
	// QueueHighWater (gauge) is the deepest the work queue has been —
	// the saturation signal instantaneous backlog cannot show between
	// samples. Aggregates by max.
	QueueHighWater int64 `stat:"max"`
	// PoolUtilPPM (gauge) is per-pool worker utilization — busy active
	// workers over active workers, in parts-per-million — indexed by
	// sched.UseCase (with pools disabled everything counts as upload).
	// Aggregates by max.
	PoolUtilPPM [2]int64 `stat:"max"`
	// Autoscale counts capacity-controller outcomes.
	Autoscale AutoscaleStats
	// Audit counts output-auditor outcomes: samples, trust-ladder
	// transitions, recalls and their blast radius.
	Audit AuditStats
	// Failures buckets step failures by typed error class (§4.4 "fault
	// correlation").
	Failures FailureClasses
	// Classes buckets transcode-step goodput by priority class, indexed
	// by sched.Priority (critical, normal, batch).
	Classes [3]ClassStats
}

// FailureClasses tallies step failures by fault class, so a fail-stop
// device, a watchdog-recovered hang, a host crash and a caught
// corruption are distinguishable in the cluster's own telemetry.
type FailureClasses struct {
	Stop      int64 // fail-stop device faults (vcu.ErrDeviceStop)
	Transient int64 // soft errors that clear (vcu.ErrTransient)
	Deadline  int64 // watchdog expiries (vcu.ErrDeadlineExceeded)
	Crash     int64 // host crashes under the step (vcu.ErrHostCrashed)
	Aborted   int64 // queue teardown (vcu.ErrAborted)
	Restart   int64 // worker restarted under the step
	Memory    int64 // device DRAM exhaustion (vcu.ErrMemoryExhausted)
	Integrity int64 // integrity-check rejections
	Recalled  int64 // audit recalls (errRecalled)
	Other     int64 // anything unclassified
}

// count buckets one failure by errors.Is class.
func (fc *FailureClasses) count(err error) {
	switch {
	case errors.Is(err, vcu.ErrDeviceStop):
		fc.Stop++
	case errors.Is(err, vcu.ErrTransient):
		fc.Transient++
	case errors.Is(err, vcu.ErrDeadlineExceeded):
		fc.Deadline++
	case errors.Is(err, vcu.ErrHostCrashed):
		fc.Crash++
	case errors.Is(err, vcu.ErrAborted),
		errors.Is(err, vcu.ErrDisabled),
		errors.Is(err, vcu.ErrQueueClosed):
		// Teardown class: the device or its queue went away under the
		// step (abort-on-failure, disable, crash teardown).
		fc.Aborted++
	case errors.Is(err, errWorkerRestart):
		fc.Restart++
	case errors.Is(err, vcu.ErrMemoryExhausted):
		fc.Memory++
	case errors.Is(err, errIntegrity):
		fc.Integrity++
	case errors.Is(err, errRecalled):
		fc.Recalled++
	default:
		fc.Other++
	}
}

// Cluster is one data center cell: hosts full of VCUs, a worker per VCU,
// a scheduler, and the work queue.
type Cluster struct {
	Eng   *sim.Engine
	cfg   Config
	Hosts []*vcu.Host

	workerType *sched.WorkerType
	scheduler  *sched.Scheduler
	workers    []*clusterWorker
	byVCU      map[int]*clusterWorker

	queue readyQueue
	// blocked is the blocked-need memo of the current room epoch.
	blocked blockedMemo
	// roomEpoch counts roomMade calls: a pass record (lastPass) from an
	// earlier epoch no longer holds.
	roomEpoch uint64
	// lastPass is what the last dispatch pass left for the next one to
	// decide whether it can find anything.
	lastPass passRecord
	// placeProbe, when set, sees every first-fit question dispatch and
	// place answer: memo reports whether it was answered (always "no
	// room") from the memo or a skipped pass in place of a walk over the
	// workers. Tests set it; nothing else does.
	placeProbe func(s *Step, need sched.Resources, avoidVCU int, memo bool)
	// free holds the execution records nothing refers to any more
	// (execution.go), for runTranscode to reuse.
	free []*execution
	// execProbe, when set, sees every record runTranscode takes from free
	// before it is reused. Tests set it; nothing else does.
	execProbe func(x *execution)
	rng       uint64
	ring      *hashRing
	// degradeLevel is the brownout controller's current rung.
	degradeLevel transcode.DegradeLevel
	// dispatching/dispatchMore guard against reentrant queue drains:
	// resolving a dropped step mid-drain (or an OnDone callback
	// submitting new work) requests another pass instead of recursing
	// into the slice the outer drain is rebuilding.
	dispatching  bool
	dispatchMore bool
	// as is the autoscaling control loop, nil when disabled.
	as *autoscaler
	// aud is the online output auditor, nil when disabled.
	aud *auditor

	// inRepair tracks which hosts are currently in the repair workflow
	// (a crashed host is disabled too, but must still be *sent* to
	// repair by the fault scan once a repair slot frees up).
	inRepair map[int]bool

	Stats Stats
}

// clusterWorker binds a scheduler worker to a VCU. Its lifecycle state
// — sw's capacity phase, screening, standing — is moved and read only
// in lifecycle.go.
type clusterWorker struct {
	sw      *sched.Worker
	vcu     *vcu.VCU
	host    *vcu.Host
	queueFW *vcu.Queue
	// pool is the logical pool the worker serves when cfg.EnablePools
	// is set; the rebalancer moves workers between pools.
	pool sched.UseCase
	// screening is the worker process's last golden-screening verdict:
	// healthServing, or healthRefused (the VCU is quarantined until
	// fault management disables it).
	screening health
	// warmUntil is when the current cold activation's warm-up ends.
	warmUntil time.Duration
	// generation counts worker restarts on this VCU.
	generation int

	// Output-auditor state (internal/cluster/audit.go). trust is the
	// device's audit-derived trust score in (0, 1]; standing is the
	// ladder rung the score has earned it (soakPasses consecutive clean
	// soaks exonerate a convicted device). produced is the taint window:
	// hardware steps completed here since the device's last clean audit,
	// capped at maxTaintWindow.
	trust      float64
	standing   standing
	soakPasses int
	produced   []*Step
}

// submit hands op to the worker's firmware queue. A step can outlive
// the queue it started on — the device was convicted under it — and is
// then refused exactly as by a closed queue.
func (cw *clusterWorker) submit(op *vcu.Op) error {
	if cw.queueFW == nil {
		return vcu.ErrQueueClosed
	}
	return cw.queueFW.RunOnCore(op)
}

// New builds a cluster with cfg.Hosts hosts on a fresh engine.
func New(cfg Config) *Cluster {
	return buildCluster(cfg, sim.NewEngine())
}

// buildCluster assembles a cluster on the given engine (regions share one
// engine across clusters).
func buildCluster(cfg Config, eng *sim.Engine) *Cluster {
	c := &Cluster{Eng: eng, cfg: cfg, byVCU: map[int]*clusterWorker{},
		inRepair: map[int]bool{}, rng: cfg.Seed*2 + 1}
	if cfg.LegacySingleSlot {
		slots := cfg.LegacySlots
		if slots <= 0 {
			slots = 3
		}
		c.workerType = sched.NewWorkerType("transcode-vcu-legacy",
			sched.CPUWorkerCapacity(slots), sched.NewCPUCostModel())
	} else {
		c.workerType = sched.NewWorkerType("transcode-vcu",
			sched.VCUWorkerCapacity(cfg.Params), sched.NewVCUCostModel(cfg.Params))
	}
	c.scheduler = sched.NewScheduler(64)
	for h := 0; h < cfg.Hosts; h++ {
		host := vcu.NewHost(eng, h, cfg.Params)
		c.Hosts = append(c.Hosts, host)
		for _, v := range host.VCUs {
			cw := &clusterWorker{sw: sched.NewWorker(v.ID, c.workerType), vcu: v, host: host, trust: 1}
			c.startWorker(cw)
			c.scheduler.AddWorker(cw.sw)
			c.workers = append(c.workers, cw)
			c.byVCU[v.ID] = cw
		}
	}
	if cfg.ConsistentHashing {
		var ids []int
		for _, cw := range c.workers {
			ids = append(ids, cw.vcu.ID)
		}
		c.ring = newHashRing(ids)
	}
	if cfg.EnablePools {
		liveN := int(cfg.LiveShare * float64(len(c.workers)))
		for i, cw := range c.workers {
			if i < liveN {
				cw.pool = sched.UseLive
			}
		}
		period := cfg.RebalancePeriod
		if period <= 0 {
			period = 30 * time.Second
		}
		c.every(period, c.rebalancePools)
	}
	c.every(faultScanPeriod, c.faultScan)
	c.every(cfg.Overload.BrownoutPeriod, c.brownoutTick)
	c.setupAutoscale()
	c.setupAudit()
	return c
}

// every runs fn each period on the sim clock, body first and re-arm
// second; a period of zero or less arms nothing. The control loops
// share one instant often, and sim.Engine breaks ties by scheduling
// order: the order of the every calls in buildCluster, and
// body-before-re-arm here, are what make a seeded run repeatable.
func (c *Cluster) every(period time.Duration, fn func()) {
	if period <= 0 {
		return
	}
	var tick func()
	tick = func() {
		fn()
		c.Eng.Schedule(period, tick)
	}
	c.Eng.Schedule(period, tick)
}

// stepPool classifies a step's pool by its request.
func stepPool(s *Step) sched.UseCase {
	if s.Request != nil && s.Request.Realtime {
		return sched.UseLive
	}
	return sched.UseUpload
}

// rebalancePools moves idle workers from backlog-free pools to starved
// ones (§3.3.3: idle workers "may be stopped and reallocated to other
// pools in the cluster").
func (c *Cluster) rebalancePools() {
	// Steps parked in retry backoff are not demand (poolBacklog):
	// counting them would drag idle workers toward a pool that has
	// nothing dispatchable yet, a spurious move that starves the pool
	// that donated them.
	backlog := c.poolBacklog()
	// While an autoscaler drain is in flight in a pool, the rebalancer
	// stands down for that pool: two worker-moving mechanisms acting on
	// one pool in the same tick would thrash (the rebalancer pulling
	// workers in while the autoscaler drains them out).
	drains := c.census().drainPools
	// Pools in priority order: idle workers are first-come-first-served,
	// so the live pool gets first pick.
	for _, pool := range []sched.UseCase{sched.UseLive, sched.UseUpload} {
		need := backlog[pool]
		if need == 0 {
			continue
		}
		if drains[pool] {
			c.Stats.Autoscale.RebalanceStandDowns++
			continue
		}
		moved := 0
		for _, cw := range c.workers {
			if moved >= need {
				break
			}
			// A donor must be a worker placeTranscode would accept: a
			// quarantined one would spend the move and still serve nothing,
			// and autoscaled-out (or not-yet-serving) workers are not
			// rebalance candidates.
			if cw.pool == pool || !cw.sw.Idle() || !cw.accepting() {
				continue
			}
			// A pool the autoscaler is draining keeps its remaining workers.
			if drains[cw.pool] {
				continue
			}
			// Only take from a pool with no backlog of its own.
			if backlog[cw.pool] > 0 {
				continue
			}
			cw.pool = pool
			c.roomMade()
			c.Stats.PoolRebalances++
			moved++
		}
	}
	c.dispatch()
}

// startWorker (re)starts the worker process on its VCU, running the
// golden screening when configured, and reports whether it passed.
func (c *Cluster) startWorker(cw *clusterWorker) bool {
	cw.generation++
	pass := !c.cfg.GoldenCheckOnStart || cw.vcu.GoldenCheck()
	c.screened(cw, pass)
	if !pass {
		c.Stats.GoldenRejections++
		return false
	}
	cw.queueFW = cw.vcu.OpenQueue()
	return true
}

// rand returns a deterministic pseudo-random float in [0, 1).
func (c *Cluster) rand() float64 {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return float64(c.rng%1e9) / 1e9
}

// Submit enqueues a graph; steps with no dependencies become ready.
func (c *Cluster) Submit(g *Graph) {
	g.remain = len(g.Steps)
	for _, s := range g.Steps {
		s.graph = g
		if len(s.Deps) == 0 {
			c.enqueue(s)
		}
	}
	c.dispatch()
}

// enqueue admits a step into the ready queue. A step of a shed graph is
// shed instead; a transcode step can be refused (and shed) by bounded
// admission when the queue is full of equal-or-higher-priority work.
func (c *Cluster) enqueue(s *Step) {
	if s.graph != nil && s.graph.Shed {
		c.markShed(s)
		return
	}
	if !c.admit(s) {
		return
	}
	s.State = StepReady
	s.eligibleAt = c.Eng.Now()
	if !s.admitted {
		s.admitted = true
		s.admittedAt = c.Eng.Now()
		if s.Kind == StepTranscode {
			c.Stats.Classes[c.classOf(s)].Admitted++
		}
	}
	c.push(s)
}

// push appends s to its class's queue and keeps the high-water gauge.
func (c *Cluster) push(s *Step) {
	c.queue.push(c.classOf(s), s)
	if n := int64(c.queue.len()); n > c.Stats.QueueHighWater {
		c.Stats.QueueHighWater = n
	}
}

// QueueLen returns the ready-queue length.
func (c *Cluster) QueueLen() int { return c.queue.len() }

// roomMade empties the blocked-need memo and starts a new room epoch,
// voiding the last pass's record. It is called by everything that can turn
// a failed placement into a success: a reservation released or reset, a
// worker starting to serve (activation, end of warm-up, a cancelled
// drain), a screening verdict, a readmission, a move up the trust
// ladder, a pool reassignment. Hardware failing only removes candidates
// and needs no call.
func (c *Cluster) roomMade() {
	c.blocked.clear()
	c.roomEpoch++
}

// dispatch drains the ready queue onto workers: strict priority classes
// (live, then upload, then batch), first fit in queue order within a
// class. Steps parked in retry backoff stay queued but are skipped until
// eligible; live steps past their usefulness window are dropped here
// rather than placed. Reentrant calls (a drop resolving dependents, an
// OnDone callback submitting new work) request another pass.
func (c *Cluster) dispatch() {
	if c.dispatching {
		c.dispatchMore = true
		return
	}
	c.dispatching = true
	for {
		c.dispatchMore = false
		c.dispatchPass()
		if !c.dispatchMore {
			break
		}
	}
	c.dispatching = false
}

// dispatchPass is one scan of the queue, class by class. The queue is
// detached for the scan: steps enqueued meanwhile (resolved dependents,
// new submits, requeues) collect in the emptied queue and go behind the
// still-waiting ones of their class when the pass re-attaches. A step
// refused before with no room made since is answered without asking
// first-fit (refused), and a pass that can find nothing (passRecord) is
// skipped.
func (c *Cluster) dispatchPass() {
	now := c.Eng.Now()
	if last := c.lastPass; !c.queue.fresh && last.epoch == c.roomEpoch &&
		last.level == c.degradeLevel && now < last.wake {
		c.skippedPass(now)
		return
	}
	// The record holds the epoch the pass starts in: a roomMade during the
	// pass leaves it stale for good.
	next := passRecord{epoch: c.roomEpoch, level: c.degradeLevel, wake: math.MaxInt64}
	pending, transcodes := c.queue.detach()
	for cls, steps := range pending {
		waiting := steps[:0]
		for _, s := range steps {
			if s.eligibleAt > now {
				waiting = append(waiting, s)
				next.wake = min(next.wake, s.eligibleAt)
				continue
			}
			deadline, live := c.dropDeadline(s)
			if live && now > deadline {
				c.dropLate(s)
			} else if c.refused(s) || !c.tryPlace(s) {
				waiting = append(waiting, s)
				if live {
					next.wake = min(next.wake, deadline+1)
				}
				if len(s.triedVCUs) > 0 {
					next.wake = now
				}
				continue
			}
			if s.Kind == StepTranscode {
				transcodes[cls]--
			}
		}
		clear(steps[len(waiting):])
		pending[cls] = waiting
	}
	c.queue.attach(pending, transcodes)
	c.lastPass = next
}

// skippedPass stands for a pass dispatch skipped: every eligible waiting
// step is answered as refused would answer it. That has effects only
// with a probe or a ring armed, so without them it costs nothing.
func (c *Cluster) skippedPass(now time.Duration) {
	if c.placeProbe == nil && c.ring == nil {
		return
	}
	for _, steps := range c.queue.steps {
		for _, s := range steps {
			if s.eligibleAt <= now {
				c.refusedUnasked(s, s.blocked.need, -1)
			}
		}
	}
}

// refused answers for first-fit, without asking it, that a waiting
// step is still refused: it was refused under the current brownout rung
// and the memo refuses its need. Only a step with no tried device
// qualifies, the memo's precondition; its exclusion set cannot change
// while it waits, because triedVCUs grows only when the step runs.
func (c *Cluster) refused(s *Step) bool {
	b := s.blocked
	if b == nil || len(s.triedVCUs) > 0 || b.level != c.degradeFor(s) ||
		!c.blocked.blocks(c.classOf(s), stepPool(s), b.need) {
		return false
	}
	c.refusedUnasked(s, b.need, -1)
	return true
}

// refusedUnasked has the effects of a first-fit question answered "no
// room" without a walk: the probe sees a memo answer, and with a ring
// armed the refusal counts as an affinity overflow, as the walk's would.
func (c *Cluster) refusedUnasked(s *Step, need sched.Resources, avoidVCU int) {
	if c.placeProbe != nil {
		c.placeProbe(s, need, avoidVCU, true)
	}
	if c.ring != nil {
		c.Stats.AffinityOverflows++
	}
}

// tryPlace attempts to place one step.
func (c *Cluster) tryPlace(s *Step) bool {
	if s.Kind != StepTranscode {
		// CPU steps: modeled as a fixed-latency host-side task. In
		// real-pixels mode the assemble step runs the actual integrity
		// checks before completing.
		s.State = StepRunning
		c.Eng.Schedule(2*time.Second, func() {
			if c.cfg.RealPixels && s.Kind == StepAssemble {
				if c.assembleVerify(s) {
					return // bad chunks re-opened; assemble waits again
				}
			}
			c.completeStep(s, nil, false)
		})
		return true
	}
	if s.Attempts >= 2 {
		// Second retry falls back to software transcoding (§3.3.3 "the
		// work is rescheduled on another VCU or with software
		// transcoding"). Software runs the full-quality request: the
		// brownout levers are VCU-capacity levers.
		s.execReq = s.Request
		s.Software = true
		s.State = StepRunning
		c.Stats.SoftwareFallbacks++
		dur := time.Duration(s.Request.TargetSeconds*8) * time.Second
		c.Eng.Schedule(dur, func() { c.completeStep(s, nil, false) })
		return true
	}
	// Apply the brownout level before costing placement: a degraded
	// request is cheaper, so degradation itself frees capacity. A step
	// that was blocked under this same rung has both already.
	lvl := c.degradeFor(s)
	var need sched.Resources
	if b := s.blocked; b != nil && b.level == lvl {
		s.execReq, need = b.req, b.need
	} else {
		s.execReq = s.Request
		if lvl != transcode.DegradeNone {
			s.execReq = degradedRequest(s.Request, lvl, c.classOf(s))
		}
		need = c.workerType.Cost(s.execReq)
	}
	s.Degraded = lvl != transcode.DegradeNone
	if s.Degraded && !s.degradeCounted {
		s.degradeCounted = true
		c.Stats.Classes[c.classOf(s)].Degraded++
	}
	cw, a, overflow := c.place(s, need, -1)
	if cw == nil {
		if b := s.blocked; b == nil || b.level != lvl {
			s.blocked = &blockedPlacement{level: lvl, req: s.execReq, need: need}
		}
		return false
	}
	s.blocked = nil
	s.State = StepRunning
	s.liveExecs = 1
	s.hedged = false
	if overflow {
		s.OverflowPlaced = true
	}
	s.RanOnVCU = append(s.RanOnVCU, cw.vcu.ID)
	c.runTranscode(s, cw, a, false)
	return true
}

// placeTranscode costs s.execReq and reserves a worker for it.
func (c *Cluster) placeTranscode(s *Step, avoidVCU int) (*clusterWorker, *sched.Assignment, bool) {
	return c.place(s, c.workerType.Cost(s.execReq), avoidVCU)
}

// place reserves a worker with room for need — the cost of s.execReq —
// preferring the video's consistent-hash affinity set and overflowing
// to any VCU only when the set has no capacity (affinity reduces blast
// radius, it must not strand work). avoidVCU additionally vetoes one
// device — the hedge's primary. Returns overflow=true when the
// placement fell outside the affinity set. Inside a dispatch call the
// blocked-need memo answers for first-fit where it can, with the side
// effects the walk would have had.
func (c *Cluster) place(s *Step, need sched.Resources, avoidVCU int) (*clusterWorker, *sched.Assignment, bool) {
	cls, pool := c.classOf(s), stepPool(s)
	if c.dispatching && c.blocked.blocks(cls, pool, need) {
		c.refusedUnasked(s, need, avoidVCU)
		return nil, nil, false
	}
	if c.placeProbe != nil {
		c.placeProbe(s, need, avoidVCU, false)
	}
	baseExclude := func(w *sched.Worker) bool {
		cw := c.byVCU[w.ID]
		return cw == nil || !c.places(cw, cls, pool) || s.triedVCUs[w.ID] || w.ID == avoidVCU
	}
	overflow := false
	var a *sched.Assignment
	var err error
	if c.ring != nil {
		k := c.cfg.AffinitySize
		if k <= 0 {
			k = 4
		}
		if s.graph.affinity == nil {
			s.graph.affinity = c.ring.AffinitySet(s.graph.ID, k)
		}
		affinity := s.graph.affinity
		a, err = c.scheduler.Schedule(need, func(w *sched.Worker) bool {
			return baseExclude(w) || !affinity[w.ID]
		})
		if err != nil {
			c.Stats.AffinityOverflows++
			overflow = true
		}
	}
	if a == nil {
		a, err = c.scheduler.Schedule(need, baseExclude)
		if err != nil {
			if c.dispatching && len(s.triedVCUs) == 0 && avoidVCU < 0 {
				c.blocked.add(cls, pool, need)
			}
			return nil, nil, false
		}
	}
	return c.byVCU[a.Worker.ID], a, overflow
}

// stepDeadline is the watchdog deadline for one execution of s, derived
// from the cost model's expected completion time. Live steps cannot
// finish before their wall duration, so the deadline floors at twice
// the chunk's wall time.
func (c *Cluster) stepDeadline(s *Step) time.Duration {
	d := time.Duration(c.cfg.WatchdogMultiplier *
		sched.ExpectedStepSeconds(s.execReq) * float64(time.Second))
	if r := s.execReq; r.Realtime && r.FPS > 0 {
		d = max(d, 2*chunkWall(r))
	}
	return d
}

// hedgeDelay is how long a step may run before a second copy launches.
func (c *Cluster) hedgeDelay(s *Step) time.Duration {
	return time.Duration(c.cfg.HedgeMultiplier *
		sched.ExpectedStepSeconds(s.execReq) * float64(time.Second))
}

// release returns a's reservation to its worker.
func (c *Cluster) release(a *sched.Assignment) {
	a.Release()
	c.roomMade()
}

// maybeHedge launches a second copy of a still-running step on a
// different VCU (the p99 straggler hedge). The copy is skipped when the
// step already settled, a hedge was already sent, or no capacity exists
// — hedging is opportunistic, never required for progress.
func (c *Cluster) maybeHedge(s *Step, token int, primaryVCU int) {
	if s.execGen != token || s.hedged || s.State != StepRunning {
		return
	}
	if hb := c.cfg.Overload.HedgeBacklog; hb > 0 && c.TranscodeBacklog() >= hb {
		// Load-aware guard: a hedge doubles the step's demand exactly
		// when capacity is scarcest, amplifying the overload. Queued
		// work will reuse the straggler's slot better than a copy.
		c.Stats.HedgesSuppressed++
		return
	}
	cw, a, overflow := c.placeTranscode(s, primaryVCU)
	if cw == nil {
		return
	}
	s.hedged = true
	s.liveExecs++
	if overflow {
		s.OverflowPlaced = true
	}
	s.RanOnVCU = append(s.RanOnVCU, cw.vcu.ID)
	c.Stats.HedgesLaunched++
	c.runTranscode(s, cw, a, true)
}

// execFailed handles the failure of one execution copy: classify and
// charge the failure, exclude the VCU, and — only when no sibling copy
// is still running — settle the step by requeueing it with backoff.
func (c *Cluster) execFailed(s *Step, cw *clusterWorker, err error) {
	c.Stats.StepsFailed++
	c.Stats.Failures.count(err)
	if cw != nil {
		s.tried(cw.vcu.ID)
		c.abortWorker(cw)
	}
	s.liveExecs--
	if s.liveExecs > 0 {
		return // the surviving copy will settle the step
	}
	s.execGen++
	s.Attempts++
	c.Stats.Retries++
	c.requeueAfter(s, c.retryDelay(s.Attempts))
}

// assembleVerify runs the real §4.4 integrity checks: decode every chunk
// and compare its length to the input. Failing chunks are re-opened for
// retry and the assemble step goes back to waiting on them. Returns true
// when verification found problems.
func (c *Cluster) assembleVerify(s *Step) bool {
	bad := c.verifyChunks(s.graph)
	if len(bad) == 0 {
		// Tampered chunks that still decode to the right shape ship —
		// completeStep counts them escaped at the delivery boundary.
		return false
	}
	c.Stats.CorruptionsCaught += int64(len(bad))
	for _, b := range bad {
		b.Corrupted = false // caught: will be redone
		s.graph.remain++    // re-open a previously-completed step
		var cw *clusterWorker
		if len(b.RanOnVCU) > 0 {
			cw = c.byVCU[b.RanOnVCU[len(b.RanOnVCU)-1]]
		}
		c.failStep(b, cw, errIntegrity)
	}
	s.State = StepPending // assemble re-arms once the chunks are redone
	c.dispatch()
	return true
}

// completeStep finishes a step, applying the integrity check to corrupted
// outputs. A step whose graph was shed while it ran is discarded: the
// video cannot assemble, so the result is useless.
func (c *Cluster) completeStep(s *Step, cw *clusterWorker, corrupted bool) {
	if s.graph != nil && s.graph.Shed {
		c.markShed(s)
		c.dispatch()
		return
	}
	if c.cfg.RealPixels && s.Kind == StepTranscode && !s.Software {
		// Really encode the chunk; a faulty VCU really tampers with it.
		// Detection happens at assembly via real decodes.
		if err := c.realEncode(s, corrupted); err != nil {
			c.failStep(s, cw, err)
			return
		}
		s.Corrupted = corrupted
	} else if corrupted {
		if c.rand() < c.cfg.IntegrityCheckProb {
			// Caught: treat as a failure and retry elsewhere.
			c.Stats.CorruptionsCaught++
			c.failStep(s, cw, errIntegrity)
			return
		}
		// Slipped past the inline screen; an escape is only counted
		// when the chunk actually ships (graph assembly), so the
		// auditor's recalls can still prevent it.
		s.Corrupted = true
	}
	s.State = StepDone
	c.Stats.StepsCompleted++
	if s.Kind == StepTranscode {
		cs := &c.Stats.Classes[c.classOf(s)]
		cs.Completed++
		// Live SLO: completion inside the usefulness window of first
		// admission. Upload/batch SLO is eventual completion.
		if w, _ := c.liveWindow(s); w == 0 || c.Eng.Now() <= s.admittedAt+w {
			cs.SLOMet++
		}
		if c.aud != nil && cw != nil && !s.Software {
			c.auditObserve(s, cw)
		}
	}
	if s.Kind == StepAssemble && s.graph != nil {
		// The delivery boundary: chunks the assemble step packaged are
		// out of recall reach. Corruption still aboard has escaped.
		c.countShippedEscapes(s.graph)
	}
	c.stepResolved(s)
}

// countShippedEscapes counts, once per step, corrupted chunks that
// passed the delivery boundary — the quantity the audit budget buys
// down (§4.4 "the system will have bad video chunks escape").
func (c *Cluster) countShippedEscapes(g *Graph) {
	for _, st := range g.Steps {
		if st.Kind == StepTranscode && st.Corrupted && !st.escapeCounted {
			st.escapeCounted = true
			c.Stats.CorruptionsEscaped++
		}
	}
}

// stepResolved propagates a step reaching a terminal state (done, or
// shed as a deadline-dropped live chunk) through its graph: decrement
// the remaining count, enqueue dependents whose dependencies are all
// satisfied — a shed dependency satisfies, so a live stream skips the
// dropped chunk and continues — and fire OnDone when the graph empties.
func (c *Cluster) stepResolved(s *Step) {
	g := s.graph
	if g == nil {
		c.dispatch()
		return
	}
	g.remain--
	if !g.Shed {
		for _, other := range g.Steps {
			if other.State != StepPending {
				continue
			}
			ready := true
			for _, d := range other.Deps {
				if d.State != StepDone && d.State != StepShed {
					ready = false
					break
				}
			}
			if ready {
				c.enqueue(other)
			}
		}
	}
	if g.remain == 0 {
		if !g.Shed {
			// Graphs without an assemble boundary ship on resolution.
			c.countShippedEscapes(g)
		}
		if g.OnDone != nil {
			g.OnDone(g)
		}
	}
	c.dispatch()
}

// failStep handles a step failure outside the execution path (memory
// admission, integrity rejection, real-pixels verification): exclude
// the VCU, apply the §4.4 mitigations and requeue with backoff.
func (c *Cluster) failStep(s *Step, cw *clusterWorker, err error) {
	c.Stats.StepsFailed++
	c.Stats.Failures.count(err)
	s.Attempts++
	c.Stats.Retries++
	if cw != nil {
		s.tried(cw.vcu.ID)
		c.abortWorker(cw)
	}
	c.requeueAfter(s, c.retryDelay(s.Attempts))
}

// abortWorker applies the §4.4 abort-on-failure mitigation: "a
// transcoding worker, upon encountering a hardware failure, immediately
// aborts all work on the VCU" and restarts shortly after. Skipped for
// hosts that are down — there is no worker left to restart.
func (c *Cluster) abortWorker(cw *clusterWorker) {
	if !c.cfg.AbortOnFailure || c.hostHealth(cw.host) != healthServing || cw.queueFW == nil {
		return
	}
	c.Stats.WorkerAborts++
	cw.queueFW.Close()
	c.Eng.Schedule(time.Second, func() {
		if c.hostHealth(cw.host) != healthServing {
			return // the readmit path restarts workers itself
		}
		c.startWorker(cw)
	})
}

// retryDelay is the capped exponential backoff before attempt n+1:
// Base<<(n-1), capped at retryBackoffMax.
func (c *Cluster) retryDelay(attempts int) time.Duration {
	base := c.cfg.RetryBackoffBase
	if base <= 0 || attempts <= 0 {
		return 0
	}
	shift := attempts - 1
	if shift > 16 {
		shift = 16
	}
	d := base << uint(shift)
	return min(d, retryBackoffMax)
}

// requeueAfter returns a failed step to the ready queue after the
// backoff delay (immediately when zero). The step is parked *in* the
// queue with a future eligibleAt rather than hidden in an engine
// closure, so admission control and backlog accounting see it — and
// pool rebalancing can deliberately not count it (deferred work is not
// demand). Requeues pass through the same admission gate as fresh work:
// a retrying batch step does not get to bypass a full queue.
func (c *Cluster) requeueAfter(s *Step, d time.Duration) {
	if s.graph != nil && s.graph.Shed {
		c.markShed(s)
		return
	}
	if d <= 0 {
		c.enqueue(s)
		c.dispatch()
		return
	}
	if !c.admit(s) {
		return
	}
	s.State = StepFailed // parked in backoff
	s.eligibleAt = c.Eng.Now() + d
	c.push(s)
	c.Eng.Schedule(d, func() {
		if s.State == StepFailed {
			s.State = StepReady
		}
		c.dispatch()
	})
}

// faultScan disables VCUs whose telemetry crossed the fault threshold
// (watchdog timeouts count: a hung or pathologically slow device must
// trip the same breaker as a failing one) and sends hosts with too many
// dead VCUs — including crashed hosts — to repair, respecting the
// repair cap. Hosts already in the repair workflow are skipped; a
// crashed host that missed a repair slot is retried every sweep.
func (c *Cluster) faultScan() {
	for _, cw := range c.workers {
		t := cw.vcu.Telemetry
		// The scan sees only what the firmware reports. An always-on
		// corrupter trips the threshold through its ECC trail and
		// attributed OpsCorrupted; an intermittent (duty-cycle)
		// corrupter reports neither — it is invisible here, and
		// catching it is the output auditor's job (audit.go).
		faults := t.OpsFailed + t.OpsCorrupted + t.ECCErrors + t.OpsTimedOut
		if faults >= c.cfg.DisableFaultThreshold && cw.powered() {
			c.disableDevice(cw)
		}
	}
	for _, h := range c.Hosts {
		if c.hostHealth(h) == healthInRepair {
			continue
		}
		// "It is not cost effective to send a system to repair when a
		// small fraction of the VCUs have failed."
		if dead := deadVCUs(h); dead > 0 && dead*4 >= len(h.VCUs) {
			if c.HostsInRepair() >= c.cfg.MaxHostsInRepair {
				c.Stats.RepairsDeferred++
				continue
			}
			c.sendToRepair(h)
		}
	}
	c.dispatch()
}
