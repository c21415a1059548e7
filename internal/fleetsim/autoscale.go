package fleetsim

import (
	"time"

	"openvcu/internal/cluster"
	"openvcu/internal/sched"
	"openvcu/internal/workload"
)

// This file adds the autoscaling experiment to the longitudinal
// simulator: one diurnal+spike demand trace replayed against three
// provisioning policies — a static park sized for peak, the closed-loop
// autoscaler at a sweep of target utilizations, and an oracle fed the
// true arrival rate — producing the cost-vs-SLO frontier. The claim
// under test: the autoscaled park tracks the trace within a small
// multiple of oracle cost while holding the live SLO, instead of paying
// peak provisioning around the clock.

// FrontierPoint is one provisioning policy's position on the
// cost-vs-SLO frontier. Flat and ==-comparable so determinism checks
// can compare points directly.
type FrontierPoint struct {
	// Policy names the provisioning policy: "static", "oracle", or
	// "autoscale".
	Policy string
	// TargetUtil is the autoscaler's design-point utilization ρ*
	// (0 for the static park).
	TargetUtil float64
	// CostWorkerHours is the integral of powered workers over the run.
	CostWorkerHours float64
	// CostVsOracle is CostWorkerHours over the oracle policy's cost —
	// 1.0 is perfect provisioning.
	CostVsOracle float64
	// LiveSLO is the critical class's SLO attainment.
	LiveSLO float64
	// Resizes counts scale-up plus scale-down events.
	Resizes int64
	// ConflictTicks counts moves suppressed by the autoscaler×brownout
	// priority protocol.
	ConflictTicks int64
}

// FrontierConfig parameterizes the cost-vs-SLO frontier experiment.
type FrontierConfig struct {
	Seed uint64
	// ArrivalWindow is how long arrivals flow; DrainWindow lets queues
	// empty and the park scale back down.
	ArrivalWindow time.Duration
	DrainWindow   time.Duration
	// TargetUtils is the autoscaler design-point sweep, in curve order.
	TargetUtils []float64
}

// The frontier replays the controller game-day's trace — a diurnal base
// with a 2× spike in the second half-hour — against a 4-host (8-worker)
// park, the static policy's park; the autoscaled policies start at
// frontierInitialWorkers and never go below frontierMinWorkers.
const (
	frontierHosts            = 4
	frontierBaseRatePerHour  = 700
	frontierSpikeStart       = 30 * time.Minute
	frontierSpikeDuration    = 30 * time.Minute
	frontierSpikeFactor      = 2
	frontierDiurnalAmplitude = 0.3
	frontierDiurnalPeriod    = 3 * time.Hour
	frontierMinWorkers       = 2
	frontierInitialWorkers   = 3
)

// DefaultFrontierConfig sweeps the autoscaler from conservative
// (ρ*=0.5, more headroom, more cost) to aggressive (ρ*=0.9).
func DefaultFrontierConfig() FrontierConfig {
	return FrontierConfig{
		Seed:          11,
		ArrivalWindow: 90 * time.Minute, DrainWindow: 150 * time.Minute,
		TargetUtils: []float64{0.5, 0.7, 0.9},
	}
}

// arrivalConfig is the trace shared by every policy in the frontier.
func (cfg FrontierConfig) arrivalConfig() workload.ArrivalConfig {
	return workload.ArrivalConfig{
		Seed:             cfg.Seed,
		Horizon:          cfg.ArrivalWindow,
		BaseRatePerHour:  frontierBaseRatePerHour,
		DiurnalAmplitude: frontierDiurnalAmplitude,
		DiurnalPeriod:    frontierDiurnalPeriod,
		SpikeStart:       frontierSpikeStart,
		SpikeDuration:    frontierSpikeDuration,
		SpikeFactor:      frontierSpikeFactor,
		LiveShare:        liveShare,
		BatchShare:       batchShare,
	}
}

// stepsPerVideo is the mean transcode-step count of one arrival under
// the experiment's video shapes: live videos are 2 chunks, uploads and
// batch re-encodes 4 — the conversion from the trace's video rate to
// the capacity model's step rate for the oracle.
const stepsPerVideo = liveShare*2 + (1-liveShare)*4

// runFrontierCell replays the trace against one provisioning policy
// (acfg nil = static park) and returns its frontier point, with
// CostVsOracle left at zero for the caller to fill.
func runFrontierCell(cfg FrontierConfig, policy string, acfg *cluster.AutoscaleConfig) FrontierPoint {
	ccfg := smallParkConfig(frontierHosts)
	ccfg.Seed = cfg.Seed
	if acfg != nil {
		ccfg.Autoscale = *acfg
	}
	c := cluster.New(ccfg)
	for _, a := range workload.GenerateArrivals(cfg.arrivalConfig()) {
		g := cluster.BuildGraph(overloadSpec(a), 10)
		c.Eng.Schedule(a.At, func() { c.Submit(g) })
	}
	horizon := cfg.ArrivalWindow + cfg.DrainWindow
	c.Eng.RunUntil(horizon)

	pt := FrontierPoint{
		Policy:  policy,
		LiveSLO: c.Stats.SLOAttainment(sched.PriorityCritical),
	}
	if acfg == nil {
		// Static park: every worker powered for the whole run.
		workers := frontierHosts * ccfg.Params.VCUsPerHost()
		pt.CostWorkerHours = float64(workers) * horizon.Hours()
		return pt
	}
	pt.TargetUtil = acfg.TargetUtilization
	as := c.Stats.Autoscale
	pt.CostWorkerHours = float64(as.ActiveWorkerTicks) * acfg.Period.Hours()
	pt.Resizes = as.ScaleUps + as.ScaleDowns
	pt.ConflictTicks = as.ConflictTicks
	return pt
}

// CostVsSLOFrontier replays one demand trace against every provisioning
// policy and returns the frontier, oracle first, then the static park,
// then the autoscaler sweep in TargetUtils order. Fully deterministic
// per config.
func CostVsSLOFrontier(cfg FrontierConfig) []FrontierPoint {
	if len(cfg.TargetUtils) == 0 {
		cfg.TargetUtils = []float64{0.7}
	}
	base := cluster.DefaultAutoscaleConfig()
	base.MinWorkers = frontierMinWorkers
	base.InitialWorkers = frontierInitialWorkers

	// Oracle: the same control loop fed the true step arrival rate, with
	// hysteresis, step caps and warmup bypassed — perfect provisioning,
	// the frontier's cost floor.
	arrCfg := cfg.arrivalConfig()
	oracleCfg := base
	oracleCfg.OracleRatePerHour = func(t time.Duration) float64 {
		if t >= cfg.ArrivalWindow {
			return 0 // the oracle knows the trace ends; RateAt does not
		}
		return arrCfg.RateAt(t) * stepsPerVideo
	}
	oracle := runFrontierCell(cfg, "oracle", &oracleCfg)
	oracle.CostVsOracle = 1

	out := []FrontierPoint{oracle, runFrontierCell(cfg, "static", nil)}
	for _, u := range cfg.TargetUtils {
		acfg := base
		acfg.TargetUtilization = u
		out = append(out, runFrontierCell(cfg, "autoscale", &acfg))
	}
	for i := range out {
		if oracle.CostWorkerHours > 0 {
			out[i].CostVsOracle = out[i].CostWorkerHours / oracle.CostWorkerHours
		}
	}
	return out
}
