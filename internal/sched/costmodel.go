package sched

import (
	"openvcu/internal/codec"
	"openvcu/internal/vcu"
	"openvcu/internal/video"
)

// StepRequest describes one transcoding step to be costed and placed:
// "a step request (which includes input video dimensions, input format,
// output formats, encoding parameters)" (§3.3.3).
type StepRequest struct {
	InputRes    video.Resolution
	FPS         int
	ChunkFrames int
	Outputs     []video.Resolution
	Profile     codec.Profile
	Mode        vcu.EncodeMode
	// SoftwareDecode requests the host-CPU decode path, charged against
	// the synthetic software-decode dimension instead of decoder cores.
	SoftwareDecode bool
	// Realtime marks live steps: execution paces at the chunk's wall
	// duration regardless of how fast the cores could finish it, so
	// admission control (not core speed) bounds concurrent streams.
	Realtime bool
	// SpeedBoost runs the encoder one speed notch faster at reduced
	// quality — the brownout controller's lever for batch work under
	// overload. The effective per-core encode rate rises by
	// SpeedBoostFactor, so the step needs fewer milliencode cores.
	SpeedBoost bool
	// TargetSeconds is how long the step may take; resource shares are
	// the sustained rates needed to finish in that time.
	TargetSeconds float64
}

// Frames is the chunk's length in frames: ChunkFrames, or 150 (5 s at
// 30 fps) for a request that does not say.
func (r *StepRequest) Frames() int {
	if r.ChunkFrames <= 0 {
		return 150
	}
	return r.ChunkFrames
}

// inputPixels returns source pixels in the chunk.
func (r *StepRequest) inputPixels() float64 {
	return float64(r.Frames()) * float64(r.InputRes.Pixels())
}

// outputPixels returns total encoded pixels across outputs.
func (r *StepRequest) outputPixels() float64 {
	var total float64
	for _, o := range r.Outputs {
		total += float64(o.Pixels())
	}
	return total * float64(r.Frames())
}

// ExpectedStepSeconds is the cost model's nominal completion time for a
// step: the latency target its resource shares are sized to meet (a
// step that must decode D pixels/s is charged exactly the millicores to
// finish in it), TargetSeconds or 10 s for a request that names none.
// Watchdog and hedge deadlines are multiples of this value.
func ExpectedStepSeconds(r *StepRequest) float64 {
	if r.TargetSeconds <= 0 {
		return 10
	}
	return r.TargetSeconds
}

// SpeedBoostFactor is the encoder throughput multiplier of the brownout
// speed raise: a SpeedBoost step encodes this much faster per core, at
// reduced output quality.
const SpeedBoostFactor = 1.5

// VCUWorkerCapacity is the capacity vector of a worker with exclusive
// access to one VCU: 3,000 millidecode cores and 10,000 milliencode cores
// (Fig. 6), the device DRAM, a 1/20 share of host CPU, and a synthetic
// software-decode budget.
func VCUWorkerCapacity(p vcu.Params) Resources {
	return Resources{
		DimDecodeMillicores:  int64(p.DecoderCores) * 1000,
		DimEncodeMillicores:  int64(p.EncoderCores) * 1000,
		DimDRAMBytes:         p.DRAMCapacity,
		DimHostCPUMillicores: int64(p.HostLogicalCores) * 1000 / int64(p.VCUsPerHost()),
		DimSoftwareDecode:    2,
	}
}

// NewVCUCostModel returns the step-request→resources mapping for VCU
// workers. The shares are sustained-rate fractions: a step that must
// decode D pixels/s consumes 1000*D/DecodePixRate millidecode cores.
// Estimates were "initially based on measurements of representative
// workloads ... and then tuned using production observations".
func NewVCUCostModel(p vcu.Params) func(*StepRequest) Resources {
	return func(r *StepRequest) Resources {
		target := ExpectedStepSeconds(r)
		decRate := r.inputPixels() / target
		encRate := r.outputPixels() / target
		encPerCore := p.EncodeRate(r.Profile, r.Mode)
		if r.SpeedBoost {
			encPerCore *= SpeedBoostFactor
		}
		res := Resources{
			DimEncodeMillicores:  ceilDiv64(int64(encRate*1000), int64(encPerCore)),
			DimHostCPUMillicores: 100, // mux/demux, RPC, rate control
		}
		outs := make([]int64, len(r.Outputs))
		for i, o := range r.Outputs {
			outs[i] = int64(o.Pixels())
		}
		res[DimDRAMBytes] = p.JobFootprint(int64(r.InputRes.Pixels()), outs)
		if r.SoftwareDecode {
			res[DimSoftwareDecode] = 1
			res[DimHostCPUMillicores] += ceilDiv64(int64(decRate*1000), int64(p.HostDecodePixRatePerCore))
		} else {
			res[DimDecodeMillicores] = ceilDiv64(int64(decRate*1000), int64(p.DecodePixRate))
		}
		return res
	}
}

// CPUWorkerCapacity is the legacy single-slot CPU worker model: a worker
// sized to run a fixed number of steps concurrently (§3.3.3).
func CPUWorkerCapacity(slots int) Resources {
	return Resources{DimSlots: int64(slots)}
}

// NewCPUCostModel charges every step one slot.
func NewCPUCostModel() func(*StepRequest) Resources {
	return func(*StepRequest) Resources { return Resources{DimSlots: 1} }
}

func ceilDiv64(a, b int64) int64 {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}
