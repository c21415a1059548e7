// Package transcode implements the data center transcoding patterns of
// paper Fig. 2: single-output transcoding (SOT — decode, scale, encode one
// variant) and multiple-output transcoding (MOT — decode once, scale and
// encode the whole output ladder), plus chunked parallel transcoding over
// closed GOPs (§2.1 "Chunking and Parallel Transcoding Modes").
package transcode

import (
	"fmt"

	"openvcu/internal/codec"
	"openvcu/internal/codec/rc"
	"openvcu/internal/par"
	"openvcu/internal/video"
)

// OutputSpec describes one output variant (a resolution/format pair).
type OutputSpec struct {
	Name       string
	Resolution video.Resolution
	Profile    codec.Profile
	RC         rc.Config
	// Hardware applies VCU encode restrictions.
	Hardware bool
	// Speed is the encoder speed setting.
	Speed int
	// TileColumns enables parallel tile-column encoding.
	TileColumns int
	// Workers bounds how many goroutines the encoder runs tile columns
	// and filter stripes on (0 = GOMAXPROCS, 1 = inline). The bitstream
	// does not depend on it.
	Workers int
}

// Output is one transcoded variant.
type Output struct {
	Spec    OutputSpec
	Packets []codec.Packet
	// Stats
	TotalBits    int
	OutputPixels int64 // encoded luma pixels, the Mpix/s numerator
}

// Result aggregates a transcode task's outputs and accounting.
type Result struct {
	Outputs []Output
	// DecodedPixels counts source pixels decoded; MOT decodes once, SOT
	// once per variant — the decode redundancy MOT exists to remove.
	DecodedPixels int64
	ScaledPixels  int64
}

// LadderSpecs builds output specs for every ladder rung at or below the
// input resolution, in ascending rung order, mirroring the standard MOT
// graph ("for 1080p inputs: 1080p, 720p, 480p, 360p, 240p and 144p are
// encoded"). Under overload the cluster does not run this full ladder:
// its brownout controller trims the top rungs, downshifts the profile
// and raises the encoder speed by DegradeLevel, trading output quality
// for survival when capacity is short.
func LadderSpecs(in video.Resolution, profile codec.Profile, bitsPerPixel float64, fps int, hardware bool) []OutputSpec {
	var specs []OutputSpec
	for _, r := range video.LadderBelow(in) {
		target := int(bitsPerPixel * float64(r.Pixels()) * float64(fps))
		specs = append(specs, OutputSpec{
			Name:       fmt.Sprintf("%s-%s", r.Name, profile),
			Resolution: r,
			Profile:    profile,
			RC:         rc.Config{Mode: rc.ModeTwoPassOffline, TargetBitrate: target},
			Hardware:   hardware,
		})
	}
	return specs
}

// DegradeLevel is a rung on the brownout ladder: how much output quality
// a transcode gives up when the cluster is short on capacity. Levels are
// ordered — each one includes the degradations of the levels below it.
type DegradeLevel int

// Brownout degradation levels.
const (
	// DegradeNone is full quality: the complete ladder as specified.
	DegradeNone DegradeLevel = iota
	// DegradeTrim drops the top ladder rung (the most expensive output).
	DegradeTrim
	// DegradeProfile additionally downshifts VP9-class outputs to
	// H.264-class (cheaper to encode, larger to serve) and raises the
	// encoder speed one notch.
	DegradeProfile
	// DegradeFloor keeps only the two bottom rungs at H.264-class and
	// maximum speed: the minimum output that still serves every device.
	DegradeFloor
)

// String names the level.
func (d DegradeLevel) String() string {
	switch d {
	case DegradeNone:
		return "none"
	case DegradeTrim:
		return "trim-top"
	case DegradeProfile:
		return "h264-downshift"
	default:
		return "floor"
	}
}

func encoderConfig(spec OutputSpec, fps int) codec.Config {
	return codec.Config{
		Profile:     spec.Profile,
		Width:       spec.Resolution.Width,
		Height:      spec.Resolution.Height,
		FPS:         fps,
		TileColumns: spec.TileColumns,
		RC:          spec.RC,
		Speed:       spec.Speed,
		Workers:     spec.Workers,
		Hardware:    spec.Hardware,
	}
}

// MOT transcodes decoded source frames into every output spec with a
// single shared decode/scale pass (Fig. 2b).
func MOT(frames []*video.Frame, fps int, specs []OutputSpec) (*Result, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("transcode: no frames")
	}
	res := &Result{}
	res.DecodedPixels = int64(len(frames)) * int64(frames[0].Pixels())

	type encState struct {
		enc  *codec.Encoder
		out  Output
		spec OutputSpec
	}
	encs := make([]*encState, len(specs))
	// First-pass statistics computed once on the source and shared,
	// read-only, across outputs — the "efficient sharing of control
	// parameters obtained by analysis of the source" of §2.1.
	var firstPass []rc.FrameStats
	for i, spec := range specs {
		enc, err := codec.NewEncoder(encoderConfig(spec, fps))
		if err != nil {
			return nil, fmt.Errorf("transcode: output %s: %w", spec.Name, err)
		}
		if spec.RC.Mode.TwoPass() {
			if firstPass == nil {
				firstPass = codec.FirstPassAnalyze(frames)
			}
			enc.SetFirstPass(firstPass)
		}
		encs[i] = &encState{enc: enc, out: Output{Spec: spec}, spec: spec}
	}
	for _, f := range frames {
		for _, es := range encs {
			scaled := video.ScaleTo(f, es.spec.Resolution)
			res.ScaledPixels += int64(scaled.Pixels())
			pkts, err := es.enc.Encode(scaled)
			if err != nil {
				return nil, err
			}
			appendPackets(&es.out, pkts)
		}
	}
	for _, es := range encs {
		pkts, err := es.enc.Flush()
		if err != nil {
			return nil, err
		}
		appendPackets(&es.out, pkts)
		es.out.OutputPixels = int64(len(frames)) * int64(es.spec.Resolution.Pixels())
		res.Outputs = append(res.Outputs, es.out)
	}
	return res, nil
}

// SOT transcodes decoded source frames into a single output (Fig. 2a).
// A full SOT ladder costs one decode per variant; Result.DecodedPixels
// accounts for this task's share.
func SOT(frames []*video.Frame, fps int, spec OutputSpec) (*Result, error) {
	return MOT(frames, fps, []OutputSpec{spec})
}

func appendPackets(out *Output, pkts []codec.Packet) {
	for _, p := range pkts {
		out.Packets = append(out.Packets, p)
		out.TotalBits += p.Bits()
	}
}

// DecodeSource decodes a packet stream into frames (the "Decode" stage).
func DecodeSource(packets []codec.Packet) ([]*video.Frame, error) {
	return codec.DecodeSequence(packets)
}

// --- chunked parallel transcoding -------------------------------------------

// Chunk is a closed GOP of source frames.
type Chunk struct {
	Index  int
	Frames []*video.Frame
}

// SplitChunks shards frames into closed GOPs of gopLen frames — the unit
// of parallel distribution across transcode workers.
func SplitChunks(frames []*video.Frame, gopLen int) []Chunk {
	if gopLen <= 0 {
		gopLen = 32
	}
	var chunks []Chunk
	for i := 0; i < len(frames); i += gopLen {
		end := i + gopLen
		if end > len(frames) {
			end = len(frames)
		}
		chunks = append(chunks, Chunk{Index: len(chunks), Frames: frames[i:end]})
	}
	return chunks
}

// ChunkedResult is the assembled outcome of a chunked transcode.
type ChunkedResult struct {
	// Outputs[i] holds the concatenated packets of spec i across chunks,
	// in chunk order: a playable stream because each chunk is a closed GOP.
	Outputs      []Output
	ChunkResults []*Result
}

// Chunked runs a MOT per chunk with up to parallelism concurrent chunks
// and assembles the per-output streams in order — the fan-out/assemble
// pattern the global work scheduler orchestrates (§2.2).
func Chunked(chunks []Chunk, fps int, specs []OutputSpec, parallelism int) (*ChunkedResult, error) {
	results := make([]*Result, len(chunks))
	err := par.Do(len(chunks), max(parallelism, 1), func(i int) error {
		r, err := MOT(chunks[i].Frames, fps, specs)
		if err != nil {
			return fmt.Errorf("transcode: chunk %d: %w", i, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &ChunkedResult{ChunkResults: results}
	out.Outputs = make([]Output, len(specs))
	for si, spec := range specs {
		out.Outputs[si].Spec = spec
		for _, r := range results {
			o := r.Outputs[si]
			out.Outputs[si].Packets = append(out.Outputs[si].Packets, o.Packets...)
			out.Outputs[si].TotalBits += o.TotalBits
			out.Outputs[si].OutputPixels += o.OutputPixels
		}
	}
	return out, nil
}
