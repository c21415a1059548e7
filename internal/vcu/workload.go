package vcu

import (
	"time"

	"openvcu/internal/codec"
	"openvcu/internal/sim"
	"openvcu/internal/video"
)

// WorkloadMode selects the transcoding pattern (paper Fig. 2).
type WorkloadMode int

// Workload modes.
const (
	ModeSOT WorkloadMode = iota
	ModeMOT
)

// Workload describes a steady-state transcoding load used to measure
// sustained throughput (the Table 1 / Figure 8 methodology: "we load the
// systems under test with parallel transcoding workloads").
type Workload struct {
	Mode    WorkloadMode
	Profile codec.Profile
	Encode  EncodeMode
	// InputRes is the source resolution of each chunk.
	InputRes video.Resolution
	// JobsPerVCU is the requested parallel transcode process count per
	// VCU; the design expects multiple processes to reach peak
	// utilization (§3.3.2). The effective count is capped by device
	// memory: each job allocates its worst-case footprint (Appendix A.4),
	// so ~16 SOT or ~11 MOT jobs fit in 8 GiB.
	JobsPerVCU int
	// SoftwareDecodeFraction routes this share of decodes to host CPUs
	// (the Fig. 9c opportunistic software-decode optimization).
	SoftwareDecodeFraction float64
	// IOOverheadFactor inflates op pixel cost to model production I/O
	// and workload mix (the vbench-vs-production gap of Fig. 8).
	IOOverheadFactor float64
}

// ThroughputResult is the outcome of a saturated-throughput run.
type ThroughputResult struct {
	// MpixPerSec is encoded output pixels per second (the paper's
	// throughput metric) across all VCUs.
	MpixPerSec float64
	// PerVCUMpixPerSec is the per-VCU average.
	PerVCUMpixPerSec float64
	EncoderUtil      float64
	DecoderUtil      float64
	ChunksCompleted  int64
}

// chunkFrames is the closed-GOP chunk length (150 frames ≈ 5 s at 30
// FPS in §4.5).
const chunkFrames = 150

// chunkPixels returns input pixels per chunk.
func (w Workload) chunkPixels() int64 {
	return chunkFrames * int64(w.InputRes.Pixels())
}

// outputLadder returns the encode sizes produced per chunk.
func (w Workload) outputLadder() []int64 {
	in := w.chunkPixels()
	if w.Mode == ModeSOT {
		// One output variant per task at the input resolution.
		return []int64{in}
	}
	var out []int64
	for _, r := range video.LadderBelow(w.InputRes) {
		out = append(out, chunkFrames*int64(r.Pixels()))
	}
	return out
}

// RunThroughput simulates nVCUs fully loaded with the workload for the
// given duration and reports sustained throughput. A warmup fraction is
// excluded by measuring completed work over the whole run (long runs
// amortize ramp-in).
func RunThroughput(p Params, nVCUs int, w Workload, simTime time.Duration) ThroughputResult {
	eng := sim.NewEngine()
	hosts := buildHosts(eng, p, nVCUs)

	if w.JobsPerVCU <= 0 {
		w.JobsPerVCU = 32 // memory capacity is the effective cap
	}
	if w.IOOverheadFactor <= 0 {
		w.IOOverheadFactor = 1.0
	}
	var encodedPixels int64
	var chunks int64
	var swDecodeTurn float64

	var vcus []*VCU
	var vcuHost []*Host
	for _, h := range hosts {
		for _, v := range h.VCUs {
			vcus = append(vcus, v)
			vcuHost = append(vcuHost, h)
		}
	}

	// Each job is a transcode process bound to one VCU, looping:
	// decode chunk -> encode every output -> next chunk.
	var startJob func(vi int, q *Queue)
	startJob = func(vi int, q *Queue) {
		in := int64(float64(w.chunkPixels()) * w.IOOverheadFactor)
		outs := w.outputLadder()
		encodeAll := func() {
			remaining := len(outs)
			for _, realPixels := range outs {
				realPixels := realPixels
				// Charge the hardware for the inflated work, but credit
				// only real output pixels as throughput.
				workPixels := int64(float64(realPixels) * w.IOOverheadFactor)
				op := &Op{Kind: OpEncode, Profile: w.Profile, Mode: w.Encode, Pixels: workPixels,
					Done: func(err error, _ bool) {
						encodedPixels += realPixels
						remaining--
						if remaining == 0 {
							chunks++
							startJob(vi, q)
						}
					}}
				if err := q.RunOnCore(op); err != nil {
					return
				}
			}
		}
		// Decode on hardware or, for a configured fraction, on host CPU.
		swDecodeTurn += w.SoftwareDecodeFraction
		if swDecodeTurn >= 1 {
			swDecodeTurn -= 1
			vcuHost[vi].SoftwareDecode(in, encodeAll)
			return
		}
		op := &Op{Kind: OpDecode, Mode: w.Encode, Pixels: in, Done: func(err error, _ bool) { encodeAll() }}
		if err := q.RunOnCore(op); err != nil {
			return
		}
	}

	footprint := p.SOTFootprintBytes
	if w.Mode == ModeMOT {
		footprint = p.MOTFootprintBytes
	}
	for vi := range vcus {
		for j := 0; j < w.JobsPerVCU; j++ {
			if vcus[vi].AllocMemory(footprint) != nil {
				break // device DRAM full: no more concurrent jobs fit
			}
			startJob(vi, vcus[vi].OpenQueue())
		}
	}
	eng.RunUntil(simTime)

	var encUtil, decUtil float64
	for _, v := range vcus {
		encUtil += v.EncoderUtilization()
		decUtil += v.DecoderUtilization()
	}
	n := float64(len(vcus))
	mpix := float64(encodedPixels) / simTime.Seconds() / 1e6
	return ThroughputResult{
		MpixPerSec:       mpix,
		PerVCUMpixPerSec: mpix / n,
		EncoderUtil:      encUtil / n,
		DecoderUtil:      decUtil / n,
		ChunksCompleted:  chunks,
	}
}

// buildHosts creates enough hosts to hold nVCUs, truncating the last.
func buildHosts(eng *sim.Engine, p Params, nVCUs int) []*Host {
	var hosts []*Host
	remaining := nVCUs
	id := 0
	for remaining > 0 {
		h := NewHost(eng, id, p)
		id++
		if remaining < len(h.VCUs) {
			h.VCUs = h.VCUs[:remaining]
		}
		remaining -= len(h.VCUs)
		hosts = append(hosts, h)
	}
	return hosts
}
