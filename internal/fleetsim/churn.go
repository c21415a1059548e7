package fleetsim

import (
	"time"

	"openvcu/internal/cluster"
	"openvcu/internal/codec"
	"openvcu/internal/vcu"
	"openvcu/internal/video"
)

// This file wires the §4.4 fault lifecycle into the longitudinal
// simulator: a fleet serving a steady upload load while a seeded chaos
// schedule (internal/cluster/chaos.go) breaks devices and crashes
// hosts, sampled as a healthy-host capacity series. The paper's claim
// under test: capped repair queues plus the repair→readmit workflow
// bound transient capacity loss and return the fleet to steady state.

// CapacitySample is one point of the capacity-under-churn series.
type CapacitySample struct {
	// Hour is sim time in hours.
	Hour float64
	// HealthyHosts is the number of hosts up and not in repair.
	HealthyHosts int
	// Completed is the cumulative count of finished videos.
	Completed int
}

// ChurnConfig parameterizes the capacity-under-churn run.
type ChurnConfig struct {
	Seed uint64
}

// The churn run is a day long on a four-host park: churnVCUFaults
// device faults and churnHostCrashes host crashes land over the first
// six hours (churnWindow) while churnVideos background uploads arrive
// spread across it; repairs drain over the rest of churnHorizon, and
// capacity is sampled every churnSampleEvery.
const (
	churnHosts       = 4
	churnVCUFaults   = 30
	churnHostCrashes = 3
	churnWindow      = 6 * time.Hour
	churnHorizon     = 24 * time.Hour
	churnSampleEvery = 30 * time.Minute
	churnVideos      = 48
)

// DefaultChurnConfig is the seed the EXPERIMENTS.md series was taken at.
func DefaultChurnConfig() ChurnConfig { return ChurnConfig{Seed: 11} }

// CapacityUnderChurn runs the cluster under the chaos schedule and
// returns the sampled capacity series. Same config, same series —
// the run is fully deterministic.
func CapacityUnderChurn(cfg ChurnConfig) []CapacitySample {
	ccfg := cluster.DefaultConfig(churnHosts)
	ccfg.ConsistentHashing = true
	ccfg.RepairLatency = 2 * time.Hour
	ccfg.Seed = cfg.Seed
	c := cluster.New(ccfg)
	c.ApplyChaos(cluster.GenerateChaos(cluster.ChaosConfig{
		Seed:        cfg.Seed,
		Window:      churnWindow,
		Hosts:       churnHosts,
		VCUsPerHost: ccfg.Params.VCUsPerHost(),
		VCUFaults:   churnVCUFaults,
		HostCrashes: churnHostCrashes,
	}))

	completed := 0
	const interval = churnWindow / churnVideos
	for i := 0; i < churnVideos; i++ {
		g := cluster.BuildGraph(cluster.VideoSpec{
			ID: i, Resolution: video.Res1080p, FPS: 30, Frames: 600,
			ChunkFrames: 150, Profile: codec.VP9Class,
			Mode: vcu.EncodeTwoPassOffline, MOT: true,
		}, 10)
		g.OnDone = func(*cluster.Graph) { completed++ }
		c.Eng.Schedule(interval*time.Duration(i), func() { c.Submit(g) })
	}

	var out []CapacitySample
	var sample func()
	sample = func() {
		out = append(out, CapacitySample{
			Hour:         c.Eng.Now().Hours(),
			HealthyHosts: c.HealthyHosts(),
			Completed:    completed,
		})
		if c.Eng.Now()+churnSampleEvery <= churnHorizon {
			c.Eng.Schedule(churnSampleEvery, sample)
		}
	}
	c.Eng.Schedule(churnSampleEvery, sample)
	c.Eng.RunUntil(churnHorizon)
	return out
}
