package fleetsim

import (
	"time"

	"openvcu/internal/cluster"
	"openvcu/internal/codec"
	"openvcu/internal/sched"
	"openvcu/internal/vcu"
	"openvcu/internal/video"
	"openvcu/internal/workload"
)

// This file adds the overload experiments to the longitudinal
// simulator: offered load swept past saturation with the admission /
// brownout / shed machinery armed, and a fixed overload replayed
// against increasing fleet loss. The claims under test: goodput
// plateaus instead of collapsing as offered load grows (the admission
// bound sheds excess instead of queueing it), and the shed order
// spends batch work to hold the live SLO while hosts are lost.

// smallParkConfig is a deliberately small cluster — one dual-VCU card
// per host, 2 encoder cores per VCU — so overload is reachable at a few
// hundred videos per hour instead of tens of thousands.
func smallParkConfig(hosts int) cluster.Config {
	cfg := cluster.DefaultConfig(hosts)
	cfg.Params.CardsPerTray = 1
	cfg.Params.TraysPerHost = 1
	cfg.Params.EncoderCores = 2
	cfg.Overload = cluster.DefaultOverloadConfig()
	return cfg
}

// overloadSpec maps an arrival to the experiment's video shapes (the
// same shapes the cluster game-day uses).
func overloadSpec(a workload.Arrival) cluster.VideoSpec {
	switch a.Class {
	case workload.ArriveLive:
		return cluster.VideoSpec{
			ID: a.ID, Resolution: video.Res1080p, FPS: 30, Frames: 300, ChunkFrames: 150,
			Profile: codec.VP9Class, Mode: vcu.EncodeOnePassLowLatency, MOT: true, Live: true,
		}
	case workload.ArriveBatch:
		return cluster.VideoSpec{
			ID: a.ID, Resolution: video.Res1080p, FPS: 30, Frames: 600, ChunkFrames: 150,
			Profile: codec.VP9Class, Mode: vcu.EncodeTwoPassOffline, MOT: true, Batch: true,
		}
	default:
		return cluster.VideoSpec{
			ID: a.ID, Resolution: video.Res1080p, FPS: 30, Frames: 600, ChunkFrames: 150,
			Profile: codec.VP9Class, Mode: vcu.EncodeTwoPassOffline, MOT: true,
		}
	}
}

// GoodputSample is one point of the goodput-vs-offered-load curve.
type GoodputSample struct {
	// Multiplier scales the base offered load.
	Multiplier float64
	// OfferedPerHour is the arrival rate for this point.
	OfferedPerHour float64
	// GoodputPerHour is useful completed work: transcode steps that
	// finished (live: inside their deadline window), per hour of
	// arrivals.
	GoodputPerHour float64
	// ShedFraction is shed steps over all admitted-or-shed steps.
	ShedFraction float64
	// LiveSLO is the critical class's SLO attainment.
	LiveSLO float64
}

// liveShare/batchShare are the class mix of every fleetsim trace; the
// rest is uploads.
const (
	liveShare  = 0.3
	batchShare = 0.4
)

// goodputBaseRatePerHour is the 1.0-multiplier arrival rate of the
// offered-load sweep, near the full-quality saturation point of its
// single small host.
const goodputBaseRatePerHour = 800

// GoodputConfig parameterizes the offered-load sweep.
type GoodputConfig struct {
	Seed uint64
	// ArrivalWindow is how long arrivals flow; the run continues for
	// DrainWindow after to let queues empty.
	ArrivalWindow time.Duration
	DrainWindow   time.Duration
	// Multipliers is the sweep, in curve order.
	Multipliers []float64
}

// DefaultGoodputConfig sweeps a single small host from half load to 6x.
// The park saturates at full quality near 1x, and the brownout ladder
// stretches capacity to roughly 4x — past that the admission bound has
// to shed.
func DefaultGoodputConfig() GoodputConfig {
	return GoodputConfig{
		Seed:          11,
		ArrivalWindow: 30 * time.Minute, DrainWindow: 90 * time.Minute,
		Multipliers: []float64{0.5, 1, 2, 4, 6},
	}
}

// GoodputVsOfferedLoad runs one cluster per multiplier and returns the
// goodput curve. With overload control armed the curve plateaus at the
// park's capacity — excess offered load turns into shed batch work, not
// congestion collapse. Fully deterministic per config.
func GoodputVsOfferedLoad(cfg GoodputConfig) []GoodputSample {
	var out []GoodputSample
	for _, m := range cfg.Multipliers {
		rate := goodputBaseRatePerHour * m
		c := cluster.New(smallParkConfig(1))
		arr := workload.GenerateArrivals(workload.ArrivalConfig{
			Seed: cfg.Seed, Horizon: cfg.ArrivalWindow, BaseRatePerHour: rate,
			LiveShare: liveShare, BatchShare: batchShare,
		})
		for _, a := range arr {
			g := cluster.BuildGraph(overloadSpec(a), 10)
			c.Eng.Schedule(a.At, func() { c.Submit(g) })
		}
		c.Eng.RunUntil(cfg.ArrivalWindow + cfg.DrainWindow)

		var good, shed, offered int64
		for p := 0; p < 3; p++ {
			cs := c.Stats.Classes[p]
			good += cs.SLOMet
			shed += cs.Shed
			offered += cs.Admitted + cs.Shed
		}
		var shedFrac float64
		if offered > 0 {
			shedFrac = float64(shed) / float64(offered)
		}
		out = append(out, GoodputSample{
			Multiplier:     m,
			OfferedPerHour: rate,
			GoodputPerHour: float64(good) / cfg.ArrivalWindow.Hours(),
			ShedFraction:   shedFrac,
			LiveSLO:        c.Stats.SLOAttainment(sched.PriorityCritical),
		})
	}
	return out
}

// FleetLossSample is one point of the SLO-vs-fleet-loss curve.
type FleetLossSample struct {
	// HostsLost is how many of the region's clusters crashed.
	HostsLost int
	// LiveSLO is the region-wide critical-class SLO attainment.
	LiveSLO float64
	// BatchShedFraction is the fraction of batch steps shed by the
	// survivors to absorb the displaced load.
	BatchShedFraction float64
	// Overflowed counts videos routed away from their home cluster.
	Overflowed int64
}

// FleetLossConfig parameterizes the fleet-loss sweep.
type FleetLossConfig struct {
	Seed uint64
	// Clusters is the region width; each cluster is one small-park host.
	Clusters int
	// ArrivalWindow / DrainWindow as in GoodputConfig.
	ArrivalWindow time.Duration
	DrainWindow   time.Duration
}

const (
	// fleetLossRatePerHour is offered load per cluster, near
	// saturation — demand does not shrink when clusters die.
	fleetLossRatePerHour = 1500
	// fleetLossCrashAt is when the lost clusters go down.
	fleetLossCrashAt = 2 * time.Minute
)

// DefaultFleetLossConfig is a three-cluster region near saturation.
func DefaultFleetLossConfig() FleetLossConfig {
	return FleetLossConfig{
		Seed: 5, Clusters: 3,
		ArrivalWindow: time.Hour, DrainWindow: 3 * time.Hour,
	}
}

// SLOVsFleetLoss replays the same offered load against a region losing
// 0, 1, ... clusters and returns the live-SLO curve: survivors shed
// batch to absorb the displaced demand, so live attainment degrades far
// more slowly than capacity. Fully deterministic per config.
func SLOVsFleetLoss(cfg FleetLossConfig) []FleetLossSample {
	var out []FleetLossSample
	for lost := 0; lost < cfg.Clusters; lost++ {
		ccfg := smallParkConfig(1)
		ccfg.Overload.MaxQueueLen = 24
		ccfg.RepairLatency = 0 // lost clusters stay lost
		r := cluster.NewRegion(ccfg, cfg.Clusters)
		for k := 0; k < lost; k++ {
			k := k
			r.Eng.Schedule(fleetLossCrashAt, func() { r.Clusters[k].CrashHost(0) })
		}
		arr := workload.GenerateArrivals(workload.ArrivalConfig{
			Seed:            cfg.Seed,
			Horizon:         cfg.ArrivalWindow,
			BaseRatePerHour: fleetLossRatePerHour * float64(cfg.Clusters),
			LiveShare:       liveShare, BatchShare: batchShare,
		})
		for i, a := range arr {
			home := i % cfg.Clusters
			g := cluster.BuildGraph(overloadSpec(a), 10)
			r.Eng.Schedule(a.At, func() {
				// Region.Submit only refuses a cluster index outside the
				// region, and home is reduced modulo its size above.
				if err := r.Submit(home, g); err != nil {
					panic(err)
				}
			})
		}
		r.Eng.RunUntil(cfg.ArrivalWindow + cfg.DrainWindow)

		st := r.Stats()
		batch := st.Classes[sched.PriorityBatch]
		var shedFrac float64
		if total := batch.Admitted + batch.Shed; total > 0 {
			shedFrac = float64(batch.Shed) / float64(total)
		}
		out = append(out, FleetLossSample{
			HostsLost:         lost,
			LiveSLO:           st.SLOAttainment(sched.PriorityCritical),
			BatchShedFraction: shedFrac,
			Overflowed:        r.Overflowed,
		})
	}
	return out
}
