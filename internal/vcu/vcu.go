package vcu

import (
	"errors"
	"fmt"
	"time"

	"openvcu/internal/codec"
	"openvcu/internal/sim"
)

// OpKind is the class of work a firmware command runs.
type OpKind int

// Operation kinds.
const (
	OpDecode OpKind = iota
	OpEncode
	OpScale
)

// Op is one unit of accelerator work: the payload of a run-on-core
// command. Cores are stateless — every input and output lives in device
// DRAM (§3.2 "Control and Stateless Operation") — so any idle core of the
// right type can execute any op.
type Op struct {
	Kind    OpKind
	Profile codec.Profile
	Mode    EncodeMode
	Pixels  int64
	// Done fires at completion. corrupted reports silent data corruption
	// (a faulty VCU that is still "fast", §4.4 black-holing).
	Done func(err error, corrupted bool)

	// Run state of the op's current execution: submitted and not yet
	// reported to Done, what the device decided at dispatch, and the
	// completion callback of its DRAM flow, bound on first dispatch. An
	// Op can be submitted again once its Done has fired; it must not be
	// copied once it has run.
	inFlight  bool
	vcu       *VCU
	epoch     int
	err       error
	corrupted bool
	// silent marks corruption the firmware cannot attribute (the
	// intermittent marginal path): it reaches Done but leaves no trace
	// in Telemetry, invisible to fault management.
	silent  bool
	drained func()
}

// InFlight reports whether op was submitted and its Done has not fired
// yet. An op seized by a hung device stays in flight for good.
func (op *Op) InFlight() bool { return op.inFlight }

// report hands the op's outcome to Done.
func (op *Op) report(err error, corrupted bool) {
	op.inFlight = false
	if op.Done != nil {
		op.Done(err, corrupted)
	}
}

// ErrDisabled is returned for ops submitted to a disabled VCU.
var ErrDisabled = errors.New("vcu: device disabled")

// ErrAborted is delivered to ops dropped when their queue is closed (a
// worker aborting all work on the VCU, §4.4).
var ErrAborted = errors.New("vcu: op aborted by queue close")

// FaultMode configures fault injection.
type FaultMode int

// Fault modes — the §4.4 taxonomy. Stop and Corrupt are the classic
// fail-stop and black-holing modes; Hang, Slow and Transient cover the
// failure shapes that are invisible to success/failure telemetry alone
// (tail-latency and degraded-operation regimes).
const (
	FaultNone FaultMode = iota
	// FaultStop makes ops fail with ErrDeviceStop after AfterOps.
	FaultStop
	// FaultCorrupt makes ops complete (fast!) but with corrupted output
	// after AfterOps — the black-holing failure of §4.4.
	FaultCorrupt
	// FaultHang makes ops never complete: the core is seized and Done
	// never fires. Only an external watchdog deadline can recover the
	// work; without one the step — and the simulation — is stuck.
	FaultHang
	// FaultSlow inflates completion latency by SlowFactor (thermal
	// throttling / degraded clock): the op still succeeds, so only a
	// deadline can tell this device from a healthy one.
	FaultSlow
	// FaultTransient fails ops with probability FailProb and then
	// recovers after RecoverOps dispatched ops.
	FaultTransient
)

// VCU models one ASIC: core pools, the DRAM bandwidth domain, device
// memory, firmware queues and fault state.
type VCU struct {
	ID  int
	eng *sim.Engine
	p   Params

	encBusy, decBusy int
	dram             *sim.Fluid
	// pcie is the tray uplink shared by the tray's VCUs; nil for a
	// standalone chip (copies then share device DRAM bandwidth).
	pcie    *sim.Fluid
	memUsed int64

	queues []*Queue
	rr     int

	disabled   bool
	fault      FaultSpec
	faultAfter int64
	opsStarted int64
	// epoch increments on Crash/Repair; completion callbacks from an
	// older epoch are void (their core accounting was already reset).
	epoch int
	// rng drives FaultTransient's per-op failure draw, seeded from the
	// device ID so runs are deterministic.
	rng uint64

	// Telemetry mirrors the firmware health reporting of §4.4.
	Telemetry Telemetry

	encBusyTime, decBusyTime     time.Duration
	lastEncChange, lastDecChange time.Duration
}

// Telemetry is the health/fault metric set the firmware reports (§4.4
// "telemetry from the cards reporting various health and fault metrics").
type Telemetry struct {
	OpsCompleted int64
	OpsFailed    int64
	// OpsCorrupted counts corruption the firmware can attribute to
	// itself — the ECC-paired always-on black-holing mode. The silent
	// intermittent path (FaultSpec.DutyCycle) by definition reports
	// nothing here: its corruption is only observable downstream, by
	// the cluster's integrity checks and output auditor.
	OpsCorrupted int64
	// OpsTimedOut counts watchdog deadline expiries charged back to the
	// device by the cluster (ChargeTimeout); it is how hung and slowed
	// devices become visible to fault management.
	OpsTimedOut int64
	// OpsHung counts ops seized forever by a FaultHang device. The
	// firmware of a truly hung device cannot report this — the counter
	// exists for the simulation observer, not the control plane.
	OpsHung       int64
	ECCErrors     int64
	Resets        int64
	PixelsEncoded int64
	PixelsDecoded int64
	// EnergyJoules integrates active energy for perf/watt accounting.
	EnergyJoules float64
}

// New returns a VCU on the engine with the given parameters.
func New(eng *sim.Engine, id int, p Params) *VCU {
	return &VCU{ID: id, eng: eng, p: p, dram: sim.NewFluid(eng, p.DRAMBandwidth),
		rng: uint64(id)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
}

// Params returns the chip parameters.
func (v *VCU) Params() Params { return v.p }

// Disabled reports whether fault management has disabled this VCU.
func (v *VCU) Disabled() bool { return v.disabled }

// Disable takes the VCU out of service (per-VCU power rails let one chip
// be disabled while the rest of the host keeps serving, §4.4).
func (v *VCU) Disable() { v.disabled = true }

// Reset clears fault state and counts a functional reset (the worker
// start-up reset of §4.4).
func (v *VCU) Reset() {
	v.Telemetry.Resets++
}

// InjectFault arms fault injection: after n more dispatched ops the VCU
// enters the given fault mode. Shorthand for InjectFaultSpec with the
// mode's default knobs.
func (v *VCU) InjectFault(mode FaultMode, afterOps int64) {
	v.InjectFaultSpec(FaultSpec{Mode: mode, AfterOps: afterOps})
}

// InjectFaultSpec arms fault injection from a full spec.
func (v *VCU) InjectFaultSpec(spec FaultSpec) {
	v.fault = spec
	v.faultAfter = v.opsStarted + spec.AfterOps
}

// Faulty reports whether the fault is active. A transient fault clears
// itself once its recovery window (in dispatched ops) has passed.
func (v *VCU) Faulty() bool {
	if v.fault.Mode == FaultTransient && v.fault.RecoverOps > 0 &&
		v.opsStarted >= v.faultAfter+v.fault.RecoverOps {
		v.fault = FaultSpec{}
	}
	return v.fault.Mode != FaultNone && v.opsStarted >= v.faultAfter
}

// ChargeTimeout charges a watchdog deadline expiry to the device's
// telemetry. Timeouts count toward the cluster's disable threshold, so
// hung and throttled devices — which never report a failure themselves —
// still trip fault management (§4.4).
func (v *VCU) ChargeTimeout() { v.Telemetry.OpsTimedOut++ }

// randFloat is a deterministic per-device xorshift draw in [0, 1).
func (v *VCU) randFloat() float64 {
	v.rng ^= v.rng << 13
	v.rng ^= v.rng >> 7
	v.rng ^= v.rng << 17
	return float64(v.rng%1e9) / 1e9
}

// resetRuntime voids in-flight work (epoch bump), settles the busy-time
// integrals, zeroes core/memory occupancy and aborts queued ops. Shared
// by Crash and Repair.
func (v *VCU) resetRuntime() {
	v.epoch++
	now := v.eng.Now()
	v.encBusyTime += time.Duration(v.encBusy) * (now - v.lastEncChange)
	v.decBusyTime += time.Duration(v.decBusy) * (now - v.lastDecChange)
	v.lastEncChange, v.lastDecChange = now, now
	v.encBusy, v.decBusy = 0, 0
	v.memUsed = 0
	for _, q := range v.queues {
		q.Close()
	}
	v.queues = nil
}

// Crash takes the device down mid-flight, as part of a host-level
// failure: pending ops abort, ops already on cores deliver
// ErrHostCrashed (at what would have been their completion time — the
// moment their loss is observable), and the device is disabled until
// the repair workflow returns it.
func (v *VCU) Crash() {
	v.resetRuntime()
	v.disabled = true
}

// Repair models the device coming back from the §4.4 repair workflow
// with the board reseated or replaced: runtime state and fault-related
// telemetry are cleared and the device is re-enabled — but a Persistent
// fault (a manufacturing escape) survives, so golden re-screening must
// still pass before the device serves again. Counts a reset.
func (v *VCU) Repair() {
	v.resetRuntime()
	v.disabled = false
	if !v.fault.Persistent {
		v.fault = FaultSpec{}
	}
	v.Telemetry.OpsFailed = 0
	v.Telemetry.OpsCorrupted = 0
	v.Telemetry.OpsTimedOut = 0
	v.Telemetry.OpsHung = 0
	v.Telemetry.ECCErrors = 0
	v.Telemetry.Resets++
}

// AllocMemory reserves device DRAM for a job; it fails when the 8 GiB
// capacity (§3.3.1) is exhausted, which is what bounds concurrent
// transcodes per VCU.
func (v *VCU) AllocMemory(bytes int64) error {
	if v.memUsed+bytes > v.p.DRAMCapacity {
		return fmt.Errorf("vcu %d: %w (%d + %d > %d)",
			v.ID, ErrMemoryExhausted, v.memUsed, bytes, v.p.DRAMCapacity)
	}
	v.memUsed += bytes
	return nil
}

// FreeMemory releases device DRAM.
func (v *VCU) FreeMemory(bytes int64) {
	v.memUsed -= bytes
	if v.memUsed < 0 {
		v.memUsed = 0
	}
}

// MemoryUsed returns the allocated device DRAM.
func (v *VCU) MemoryUsed() int64 { return v.memUsed }

// Queue is a userspace-mapped firmware command queue. One transcoding
// process owns one queue (§3.3.2); the firmware multiplexes queues onto
// cores round-robin for fairness.
type Queue struct {
	vcu *VCU
	// pending[head:] are the ops waiting for a core, oldest first. The
	// array is reused: a taken slot is cleared, and the waiting ops move
	// to the front rather than the array grow while there is room there.
	pending []*Op
	head    int
	closed  bool
}

// OpenQueue creates a new firmware queue on the VCU.
func (v *VCU) OpenQueue() *Queue {
	q := &Queue{vcu: v}
	v.queues = append(v.queues, q)
	return q
}

// Close detaches the queue. Pending (not yet dispatched) ops fail with
// ErrAborted; ops already on a core run to completion.
func (q *Queue) Close() {
	q.closed = true
	dropped := q.pending[q.head:]
	q.pending, q.head = nil, 0
	for _, op := range dropped {
		if op.Done == nil {
			op.inFlight = false
			continue
		}
		q.vcu.eng.Schedule(0, func() { op.report(ErrAborted, false) })
	}
}

// push appends op to the waiting ops.
func (q *Queue) push(op *Op) {
	if q.head > 0 && len(q.pending) == cap(q.pending) {
		n := copy(q.pending, q.pending[q.head:])
		clear(q.pending[n:])
		q.pending, q.head = q.pending[:n], 0
	}
	q.pending = append(q.pending, op)
}

// pop removes the oldest waiting op.
func (q *Queue) pop() {
	q.pending[q.head] = nil
	q.head++
	if q.head == len(q.pending) {
		q.pending, q.head = q.pending[:0], 0
	}
}

// RunOnCore submits an op. Which core executes it is the firmware's
// choice — the command deliberately does not name a core (§3.3.2).
func (q *Queue) RunOnCore(op *Op) error {
	if q.vcu.disabled {
		return ErrDisabled
	}
	if q.closed {
		return ErrQueueClosed
	}
	op.inFlight = true
	q.push(op)
	q.vcu.dispatch()
	return nil
}

// CopyToDevice models a host→device DMA over the tray's PCIe link (or a
// device-DRAM share for a standalone chip); done fires on completion.
func (q *Queue) CopyToDevice(bytes int64, done func()) error {
	if q.vcu.disabled {
		return ErrDisabled
	}
	if q.vcu.pcie != nil {
		// A single DMA stream uses at most half the x16 link.
		q.vcu.pcie.Start(float64(bytes), q.vcu.p.TrayPCIeBitsPerSec/8/2, done)
		return nil
	}
	q.vcu.dram.Start(float64(bytes), q.vcu.p.DRAMBandwidth/8, done)
	return nil
}

// --- firmware scheduler -----------------------------------------------------

// dispatch assigns pending ops to idle cores, scanning queues round-robin
// from the rotation point for fairness (§3.3.2: "the firmware schedules
// work from queues in a round-robin way").
func (v *VCU) dispatch() {
	if len(v.queues) == 0 {
		return
	}
	progress := true
	for progress {
		progress = false
		for i := 0; i < len(v.queues); i++ {
			q := v.queues[(v.rr+i)%len(v.queues)]
			if q.head == len(q.pending) {
				continue
			}
			op := q.pending[q.head]
			if !v.coreAvailable(op.Kind) {
				continue
			}
			q.pop()
			v.rr = (v.rr + i + 1) % len(v.queues)
			v.execute(op)
			progress = true
			break
		}
	}
}

func (v *VCU) coreAvailable(k OpKind) bool {
	switch k {
	case OpDecode:
		return v.decBusy < v.p.DecoderCores
	case OpEncode:
		return v.encBusy < v.p.EncoderCores
	default: // scale runs in the encoder core preprocessor
		return v.encBusy < v.p.EncoderCores
	}
}

// opCost returns (seconds-of-core-time, DRAM bytes) for an op.
func (v *VCU) opCost(op *Op) (float64, float64) {
	px := float64(op.Pixels)
	switch op.Kind {
	case OpDecode:
		// Offline two-pass transcodes decode the chunk once per encoding
		// pass, halving effective decode throughput; realtime modes
		// decode once at the core's peak rate. Op.Mode carries the
		// transcode's encode mode for this distinction.
		rate := v.p.DecodePixRate
		if op.Mode == EncodeOnePassLowLatency || op.Mode == EncodeTwoPassLowLatency {
			rate = v.p.RealtimeDecodePixRate
		}
		return px / rate, px * v.p.DecodeBytesPerPixel
	case OpEncode:
		rate := v.p.EncodeRate(op.Profile, op.Mode)
		return px / rate, px * v.p.EncodeBytesPerPixelFBC
	default: // scale: preprocessor at 4x the realtime encode rate
		return px / (4 * v.p.RealtimeEncodePixRate), px * 3.0
	}
}

func (v *VCU) execute(op *Op) {
	coreSec, bytes := v.opCost(op)
	op.vcu, op.err, op.corrupted, op.silent = v, nil, false, false
	faulty := v.Faulty()
	v.opsStarted++
	if faulty {
		switch v.fault.Mode {
		case FaultStop:
			op.err = v.deviceErr(ErrDeviceStop)
			coreSec *= 0.05 // fails fast
		case FaultCorrupt:
			if d := v.fault.DutyCycle; d > 1 {
				// Intermittent (1-in-N) corrupter: only the duty slots
				// corrupt, and silently — no ECC trail, no OpsCorrupted
				// report — so device telemetry alone can never convict
				// it. opsStarted was just incremented, so the first op
				// in the fault window is slot 1: the first N-1 ops are
				// clean, which is exactly why a short golden task at
				// admission passes.
				if (v.opsStarted-v.faultAfter)%d != 0 {
					break
				}
				op.corrupted = true
				op.silent = true
				coreSec *= 0.5
				break
			}
			op.corrupted = true
			coreSec *= 0.5 // failing-but-fast: the black-holing hazard
			v.Telemetry.ECCErrors++
		case FaultHang:
			// The op never completes: the core is seized and Done never
			// fires. Recovery is the watchdog's job, not the device's.
			v.Telemetry.OpsHung++
			v.acquireCore(op.Kind)
			return
		case FaultSlow:
			f := v.fault.SlowFactor
			if f <= 1 {
				f = DefaultSlowFactor
			}
			coreSec *= f
		case FaultTransient:
			if v.randFloat() < v.fault.FailProb {
				op.err = v.deviceErr(ErrTransient)
				coreSec *= 0.05
			}
		}
	}
	op.epoch = v.epoch
	v.acquireCore(op.Kind)
	// The op holds its core while its DRAM flow drains; the flow's
	// natural rate is bytes/coreSec, so an uncontended op takes exactly
	// its compute time and a bandwidth-saturated chip slows down.
	if op.drained == nil {
		op.drained = op.complete
	}
	v.dram.Start(bytes, bytes/coreSec, op.drained)
}

// complete ends the op's execution when its DRAM flow has drained.
func (op *Op) complete() {
	v := op.vcu
	if v.epoch != op.epoch {
		// The host crashed or the board was repaired under the op:
		// core and memory accounting were already reset, the result
		// is void. This is the instant the loss becomes observable.
		op.report(v.deviceErr(ErrHostCrashed), false)
		return
	}
	v.releaseCore(op.Kind)
	if op.err != nil {
		v.Telemetry.OpsFailed++
	} else {
		v.Telemetry.OpsCompleted++
		if op.corrupted && !op.silent {
			v.Telemetry.OpsCorrupted++
		}
		switch op.Kind {
		case OpDecode:
			v.Telemetry.PixelsDecoded += op.Pixels
			v.Telemetry.EnergyJoules += float64(op.Pixels) * v.p.DecodeEnergyPerPixel
		case OpEncode:
			v.Telemetry.PixelsEncoded += op.Pixels
			v.Telemetry.EnergyJoules += float64(op.Pixels) * v.p.EncodeEnergyPerPixel
		}
	}
	// Done may submit op again: nothing reads op after it.
	op.report(op.err, op.corrupted)
	v.dispatch()
}

func (v *VCU) acquireCore(k OpKind) {
	now := v.eng.Now()
	if k == OpDecode {
		v.decBusyTime += time.Duration(v.decBusy) * (now - v.lastDecChange)
		v.lastDecChange = now
		v.decBusy++
	} else {
		v.encBusyTime += time.Duration(v.encBusy) * (now - v.lastEncChange)
		v.lastEncChange = now
		v.encBusy++
	}
}

func (v *VCU) releaseCore(k OpKind) {
	now := v.eng.Now()
	if k == OpDecode {
		v.decBusyTime += time.Duration(v.decBusy) * (now - v.lastDecChange)
		v.lastDecChange = now
		v.decBusy--
	} else {
		v.encBusyTime += time.Duration(v.encBusy) * (now - v.lastEncChange)
		v.lastEncChange = now
		v.encBusy--
	}
}

// EncoderUtilization returns the mean encoder-core busy fraction.
func (v *VCU) EncoderUtilization() float64 {
	t := v.encBusyTime + time.Duration(v.encBusy)*(v.eng.Now()-v.lastEncChange)
	if v.eng.Now() == 0 {
		return 0
	}
	return float64(t) / float64(v.eng.Now()) / float64(v.p.EncoderCores)
}

// DecoderUtilization returns the mean decoder-core busy fraction.
func (v *VCU) DecoderUtilization() float64 {
	t := v.decBusyTime + time.Duration(v.decBusy)*(v.eng.Now()-v.lastDecChange)
	if v.eng.Now() == 0 {
		return 0
	}
	return float64(t) / float64(v.eng.Now()) / float64(v.p.DecoderCores)
}

// BurnIn runs the manufacturing screen of §4.4: "to detect manufacturing
// escapes, DRAM test patterns are written and evaluated during burnin."
// It writes walking-ones/zeros and checkerboard patterns through a model
// of device DRAM and reports whether any stuck bits were found. Fault
// injection with FaultCorrupt models a manufacturing escape.
func (v *VCU) BurnIn() bool {
	v.Telemetry.Resets++
	patterns := []uint64{0xAAAAAAAAAAAAAAAA, 0x5555555555555555, 0x0123456789ABCDEF, 0}
	for _, p := range patterns {
		for bit := 0; bit < 64; bit++ {
			wrote := p ^ (1 << uint(bit))
			read := wrote
			if v.Faulty() && !v.intermittent() {
				read ^= 1 << uint(bit%8) // stuck bit in a faulty chip
			}
			if read != wrote {
				v.Telemetry.ECCErrors++
				return false
			}
		}
	}
	return true
}

// intermittent reports whether the armed fault is a duty-cycle (1-in-N)
// corrupter — the manufacturing-escape/aging model whose off-duty ops
// are bit-exact, so a single short screening task cannot catch it.
func (v *VCU) intermittent() bool {
	return v.fault.Mode == FaultCorrupt && v.fault.DutyCycle > 1
}

// GoldenCheck runs the short deterministic "golden" transcoding tasks a
// worker executes across every core before accepting work (§4.4). It
// reports false if the VCU produces wrong output — relying, as the paper
// does, on the cores' deterministic behavior. An intermittent duty-cycle
// corrupter deterministically PASSES: the one-shot task lands on an
// off-duty op, which is the whole point of the §4.4 deployment story —
// admission screening is not fleet health, and catching such a device is
// the online auditor's job (internal/cluster/audit.go).
func (v *VCU) GoldenCheck() bool {
	v.Reset()
	if v.disabled {
		return false
	}
	return !v.Faulty() || v.intermittent()
}

// ExtendedCheck is the extended-soak re-screening pass of the conviction
// ladder: n back-to-back golden tasks with output comparison, long
// enough to walk an intermittent corrupter through its duty cycle. It
// advances the device op counter, so consecutive passes probe
// consecutive windows — K clean passes in a row is the quarantine-exit
// criterion, since any single pass can still straddle the cycle. A
// healthy (or recovered-transient) device always passes; any other
// armed fault fails the soak.
func (v *VCU) ExtendedCheck(n int64) bool {
	v.Reset()
	if v.disabled {
		return false
	}
	if n <= 0 {
		n = 1
	}
	start := v.opsStarted
	v.opsStarted += n
	if !v.Faulty() { // also clears a recovered transient
		return true
	}
	if !v.intermittent() {
		return false
	}
	// The intermittent corrupter fails the soak iff a duty slot lands
	// inside the probe window (start, start+n]: slots sit at
	// faultAfter+d, faultAfter+2d, ...
	d := v.fault.DutyCycle
	a := start - v.faultAfter
	if a < 0 {
		a = 0
	}
	b := v.opsStarted - v.faultAfter
	return b/d == a/d
}
