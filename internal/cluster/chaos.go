package cluster

import (
	"time"

	"openvcu/internal/vcu"
)

// This file is the deterministic chaos harness of §4.4: a seeded
// schedule generator that injects every fault class the platform must
// survive — fail-stop, silent corruption, hangs, pathological slowness,
// transient soft errors, and whole-host crashes — into a running
// cluster at predetermined sim times. The same seed always yields the
// same schedule, so chaos runs are reproducible experiments, not flaky
// tests.

// ChaosEventKind is the class of one injected fault.
type ChaosEventKind int

// Chaos event kinds.
const (
	// ChaosVCUFault arms a device-level fault (Spec) on one VCU.
	ChaosVCUFault ChaosEventKind = iota
	// ChaosHostCrash fail-stops one host, taking down all its VCUs.
	ChaosHostCrash
)

// ChaosEvent is one scheduled fault injection.
type ChaosEvent struct {
	// At is the sim time the fault arms.
	At time.Duration
	// Kind selects device fault vs host crash.
	Kind ChaosEventKind
	// Host is the target host index; VCU the device index within it
	// (ignored for host crashes).
	Host int
	VCU  int
	// Spec is the device fault to arm (ChaosVCUFault only).
	Spec vcu.FaultSpec
}

// ChaosConfig parameterizes schedule generation.
type ChaosConfig struct {
	// Seed fully determines the schedule.
	Seed uint64
	// Window is the time span faults are spread across.
	Window time.Duration
	// Hosts and VCUsPerHost describe the target cluster's topology.
	Hosts       int
	VCUsPerHost int
	// VCUFaults and HostCrashes are the event counts per class.
	VCUFaults   int
	HostCrashes int
	// IntermittentCorruption adds the sixth fault class — the
	// telemetry-silent duty-cycle corrupter — to the rotation. Opt-in:
	// it is invisible to the fault scan and survivable only with the
	// output auditor armed (Config.Audit), so schedules generated for
	// auditor-less clusters keep the five always-detectable classes.
	IntermittentCorruption bool
}

// chaosRand is the harness's own xorshift64 stream, independent of the
// cluster's sampling stream so arming chaos never perturbs cluster
// decisions made from the same seed.
type chaosRand struct{ s uint64 }

func (r *chaosRand) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *chaosRand) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// lowBiased draws min of three uniform samples in [0, n): chaos aims
// where the traffic is. First-fit scheduling concentrates load on
// low-numbered workers, so uniform targeting would mostly hit idle
// devices and prove nothing.
func (r *chaosRand) lowBiased(n int) int {
	a, b, c := r.intn(n), r.intn(n), r.intn(n)
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// GenerateChaos produces a deterministic fault schedule. Device faults
// rotate through the fault classes so every run exercises fail-stop,
// always-on corruption, hang, slowdown and transient errors — plus
// intermittent (duty-cycle) corruption when IntermittentCorruption is
// set; none are Persistent, so every fault is repairable and
// steady-state capacity can recover. Events are emitted in increasing
// At order.
func GenerateChaos(cfg ChaosConfig) []ChaosEvent {
	r := &chaosRand{s: cfg.Seed*0x9e3779b97f4a7c15 + 1}
	total := cfg.VCUFaults + cfg.HostCrashes
	if total == 0 || cfg.Hosts == 0 || cfg.VCUsPerHost == 0 {
		return nil
	}
	specs := []vcu.FaultSpec{
		{Mode: vcu.FaultStop},
		{Mode: vcu.FaultCorrupt},
		{Mode: vcu.FaultHang},
		{Mode: vcu.FaultSlow, SlowFactor: 32},
		{Mode: vcu.FaultTransient, FailProb: 0.5, RecoverOps: 16},
	}
	if cfg.IntermittentCorruption {
		// The marginal device: telemetry-silent, passes golden screening,
		// corrupts every 16th op — only the output auditor can catch it.
		specs = append(specs, vcu.FaultSpec{Mode: vcu.FaultCorrupt, DutyCycle: 16})
	}
	events := make([]ChaosEvent, 0, total)
	step := cfg.Window / time.Duration(total)
	for i := 0; i < total; i++ {
		// One event per window slice, jittered within it: spread out but
		// fully deterministic.
		at := step*time.Duration(i) + time.Duration(r.intn(int(step/time.Millisecond)))*time.Millisecond
		if i < cfg.VCUFaults {
			// Device faults target by global VCU number with a low bias
			// (the first-fit hot set), split into host/device indices.
			id := r.lowBiased(cfg.Hosts * cfg.VCUsPerHost)
			events = append(events, ChaosEvent{
				At:   at,
				Kind: ChaosVCUFault,
				Host: id / cfg.VCUsPerHost,
				VCU:  id % cfg.VCUsPerHost,
				Spec: specs[i%len(specs)],
			})
		} else {
			events = append(events, ChaosEvent{
				At:   at,
				Kind: ChaosHostCrash,
				Host: r.intn(cfg.Hosts),
			})
		}
	}
	return events
}

// ApplyChaos schedules every event onto the cluster's engine. Call
// before Run/RunUntil. Device faults arm immediately at their time
// (AfterOps 0); a fault aimed at a host that is down or a VCU already
// faulted simply lands on top — chaos does not coordinate with the
// cluster's repair state, by design.
func (c *Cluster) ApplyChaos(events []ChaosEvent) {
	for _, ev := range events {
		ev := ev
		c.Eng.Schedule(ev.At, func() {
			switch ev.Kind {
			case ChaosVCUFault:
				if ev.Host < len(c.Hosts) {
					h := c.Hosts[ev.Host]
					if ev.VCU < len(h.VCUs) {
						h.VCUs[ev.VCU].InjectFaultSpec(ev.Spec)
					}
				}
			case ChaosHostCrash:
				c.CrashHost(ev.Host)
			}
		})
	}
}
