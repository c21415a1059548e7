// Package tco models performance per total-cost-of-ownership and per watt
// for the four systems of Table 1: the dual-socket Skylake baseline, the
// 4×Nvidia-T4 offload system, and the 8- and 20-VCU accelerator systems.
//
// The paper withholds its TCO methodology ("we are unable to discuss our
// detailed TCO methodology due to confidentiality reasons") and reports
// only ratios, so cost and power here are parametric constants calibrated
// to make the published ratio structure emerge; VCU *throughput*, by
// contrast, is measured by running the discrete-event chip model. Every
// constant is recorded in EXPERIMENTS.md.
package tco

import (
	"time"

	"openvcu/internal/codec"
	"openvcu/internal/vcu"
	"openvcu/internal/video"
)

// System identifies a Table 1 row.
type System int

// Table 1 systems.
const (
	SystemSkylake System = iota
	SystemGPU4xT4
	SystemVCU8
	SystemVCU20
)

// String names the system as Table 1 does.
func (s System) String() string {
	switch s {
	case SystemSkylake:
		return "Skylake"
	case SystemGPU4xT4:
		return "4xNvidia T4"
	case SystemVCU8:
		return "8xVCU"
	default:
		return "20xVCU"
	}
}

// Constants holds the calibrated cost/power/baseline-throughput inputs.
type Constants struct {
	// Measured baseline throughputs (Mpix/s, offline two-pass SOT on the
	// vbench suite): Table 1 rows for Skylake and the GPU.
	SkylakeH264, SkylakeVP9 float64
	GPUH264                 float64 // the T4 stack had no VP9 encoder

	// TCOUnits is capex + 3 years of opex, normalized to Skylake = 1.0.
	// Derived by inverting Table 1's perf/TCO column against its
	// throughput column (the two columns pin the ratio).
	TCOUnits map[System]float64

	// ActivePowerWatts is per-system active (busy minus idle) power for
	// the perf/watt comparisons of §4.1, calibrated to the published
	// 6.7x (SOT H.264) and 68.9x (MOT VP9) ratios.
	SkylakeActiveWatts float64
	VCU20SOTWatts      float64
	VCU20MOTWatts      float64
}

// DefaultConstants returns the calibration described above.
func DefaultConstants() Constants {
	return Constants{
		SkylakeH264: 714, SkylakeVP9: 154,
		GPUH264: 2484,
		TCOUnits: map[System]float64{
			SystemSkylake: 1.00,
			SystemGPU4xT4: 2.32,
			SystemVCU8:    1.90,
			SystemVCU20:   2.99,
		},
		SkylakeActiveWatts: 350,
		VCU20SOTWatts:      1090,
		VCU20MOTWatts:      612,
	}
}

// Row is one line of the reproduced Table 1.
type Row struct {
	System         System
	ThroughputH264 float64 // Mpix/s
	ThroughputVP9  float64 // Mpix/s; 0 = not supported
	PerfTCOH264    float64 // normalized to Skylake
	PerfTCOVP9     float64
}

// Table1 regenerates the paper's Table 1. Baseline rows come from the
// Constants; VCU rows are produced by simulating the chip model under a
// saturated offline two-pass SOT workload (the vbench methodology).
func Table1(c Constants, p vcu.Params, simTime time.Duration) []Row {
	measure := func(n int, profile codec.Profile) float64 {
		w := vcu.Workload{Mode: vcu.ModeSOT, Profile: profile,
			Encode: vcu.EncodeTwoPassOffline, InputRes: video.Res1080p}
		return vcu.RunThroughput(p, n, w, simTime).MpixPerSec
	}
	rows := []Row{
		{System: SystemSkylake, ThroughputH264: c.SkylakeH264, ThroughputVP9: c.SkylakeVP9},
		{System: SystemGPU4xT4, ThroughputH264: c.GPUH264},
		{System: SystemVCU8, ThroughputH264: measure(8, codec.H264Class), ThroughputVP9: measure(8, codec.VP9Class)},
		{System: SystemVCU20, ThroughputH264: measure(20, codec.H264Class), ThroughputVP9: measure(20, codec.VP9Class)},
	}
	baseH264 := c.SkylakeH264 / c.TCOUnits[SystemSkylake]
	baseVP9 := c.SkylakeVP9 / c.TCOUnits[SystemSkylake]
	for i := range rows {
		r := &rows[i]
		tcoUnits := c.TCOUnits[r.System]
		r.PerfTCOH264 = r.ThroughputH264 / tcoUnits / baseH264
		if r.ThroughputVP9 > 0 {
			r.PerfTCOVP9 = r.ThroughputVP9 / tcoUnits / baseVP9
		}
	}
	return rows
}

// PerfPerWatt reproduces the §4.1 perf/watt comparisons: the 20xVCU
// system against the CPU baseline for single-output H.264 and
// multi-output VP9.
type PerfPerWatt struct {
	SOTH264Ratio float64 // paper: 6.7x
	MOTVP9Ratio  float64 // paper: 68.9x
}

// PerfWatt computes the two ratios using simulated VCU throughput and the
// calibrated power constants.
func PerfWatt(c Constants, p vcu.Params, simTime time.Duration) PerfPerWatt {
	sot := vcu.RunThroughput(p, 20, vcu.Workload{Mode: vcu.ModeSOT,
		Profile: codec.H264Class, Encode: vcu.EncodeTwoPassOffline,
		InputRes: video.Res1080p}, simTime)
	mot := vcu.RunThroughput(p, 20, vcu.Workload{Mode: vcu.ModeMOT,
		Profile: codec.VP9Class, Encode: vcu.EncodeTwoPassOffline,
		InputRes: video.Res1080p}, simTime)
	cpuH264 := c.SkylakeH264 / c.SkylakeActiveWatts
	cpuVP9 := c.SkylakeVP9 / c.SkylakeActiveWatts
	return PerfPerWatt{
		SOTH264Ratio: (sot.MpixPerSec / c.VCU20SOTWatts) / cpuH264,
		MOTVP9Ratio:  (mot.MpixPerSec / c.VCU20MOTWatts) / cpuVP9,
	}
}

// MOTvsSOT reports the production MOT/SOT per-VCU throughput pair of
// Figure 8 (≈400 vs ≈250 Mpix/s): the Table 1 numbers discounted by
// production I/O and workload-mix overhead.
type MOTvsSOT struct {
	MOTPerVCU float64
	SOTPerVCU float64
}

// ProductionThroughput measures per-VCU production throughput: the
// IOOverheadFactor models the gap between vbench and the production
// service ("the difference vs vbench MOT throughput is due to I/O and
// workload mix"). SOT production workers also produce inefficient
// low-resolution outputs for high-resolution inputs, a further discount.
func ProductionThroughput(p vcu.Params, simTime time.Duration) MOTvsSOT {
	const ioOverhead = 2.4 // vbench 976 -> production ~400 Mpix/s per VCU
	mot := vcu.RunThroughput(p, 4, vcu.Workload{Mode: vcu.ModeMOT,
		Profile: codec.VP9Class, Encode: vcu.EncodeTwoPassOffline,
		InputRes: video.Res1080p, IOOverheadFactor: ioOverhead}, simTime)
	// SOT pays the same I/O overhead plus low-resolution outputs whose
	// decode dominates: model by charging SOT the 720p ladder mix.
	sot := vcu.RunThroughput(p, 4, vcu.Workload{Mode: vcu.ModeSOT,
		Profile: codec.VP9Class, Encode: vcu.EncodeTwoPassOffline,
		InputRes: video.Res720p, IOOverheadFactor: ioOverhead * 1.25}, simTime)
	return MOTvsSOT{MOTPerVCU: mot.PerVCUMpixPerSec, SOTPerVCU: sot.PerVCUMpixPerSec}
}
