package cluster

import (
	"openvcu/internal/codec"
	"openvcu/internal/sched"
	"openvcu/internal/vcu"
	"openvcu/internal/video"
)

// VideoSpec describes one uploaded video to process.
type VideoSpec struct {
	ID          int
	Resolution  video.Resolution
	FPS         int
	Frames      int
	ChunkFrames int
	Profile     codec.Profile
	Mode        vcu.EncodeMode
	// MOT produces the full ladder per chunk; otherwise one SOT per rung.
	MOT bool
	// Live marks a real-time stream: steps pace at chunk wall duration.
	Live bool
	// Batch marks low-priority re-encode work (the §2.2 "older and
	// popular videos re-encoded" traffic): first to shed and degrade
	// under overload.
	Batch bool
}

// priorityFor maps a video to its admission/dispatch class.
func priorityFor(spec VideoSpec) sched.Priority {
	switch {
	case spec.Live:
		return sched.PriorityCritical
	case spec.Batch:
		return sched.PriorityBatch
	default:
		return sched.PriorityNormal
	}
}

// BuildGraph expands a video into its work graph: per-chunk transcode
// steps fanned out in parallel, the usual CPU side-steps (thumbnail,
// fingerprint), an assembly step depending on every transcode, and a
// notification step at the end (§2.2, §3.3.3).
func BuildGraph(spec VideoSpec, stepTargetSeconds float64) *Graph {
	if spec.ChunkFrames <= 0 {
		spec.ChunkFrames = 150
	}
	if spec.Frames <= 0 {
		spec.Frames = spec.ChunkFrames
	}
	nChunks := (spec.Frames + spec.ChunkFrames - 1) / spec.ChunkFrames
	// One array holds every step of the graph and one every request, so
	// a graph is a handful of allocations whatever its chunk count.
	steps := make([]Step, nChunks+4)
	reqs := make([]sched.StepRequest, nChunks)
	g := &Graph{ID: spec.ID, Priority: priorityFor(spec), Steps: make([]*Step, 0, len(steps))}
	add := func(kind StepKind, req *sched.StepRequest, deps ...*Step) *Step {
		s := &steps[len(g.Steps)]
		*s = Step{ID: len(g.Steps), Kind: kind, Request: req, Deps: deps}
		g.Steps = append(g.Steps, s)
		return s
	}

	outputs := []video.Resolution{spec.Resolution}
	if spec.MOT {
		outputs = video.LadderBelow(spec.Resolution)
	}
	transcodes := make([]*Step, 0, nChunks)
	for cidx := 0; cidx < nChunks; cidx++ {
		frames := spec.ChunkFrames
		if last := spec.Frames - cidx*spec.ChunkFrames; last < frames {
			frames = last
		}
		req := &reqs[cidx]
		*req = sched.StepRequest{
			InputRes:      spec.Resolution,
			FPS:           spec.FPS,
			ChunkFrames:   frames,
			Outputs:       outputs,
			Profile:       spec.Profile,
			Mode:          spec.Mode,
			Realtime:      spec.Live,
			TargetSeconds: stepTargetSeconds,
		}
		if spec.Live && spec.FPS > 0 {
			// A live step's resource shares are its sustained streaming
			// rates over the chunk's wall duration.
			req.TargetSeconds = float64(frames) / float64(spec.FPS)
		}
		transcodes = append(transcodes, add(StepTranscode, req))
	}
	add(StepThumbnail, nil)
	add(StepFingerprint, nil)
	assemble := add(StepAssemble, nil, transcodes...)
	add(StepNotify, nil, assemble)
	return g
}
