// Package openvcu is an open reproduction of "Warehouse-Scale Video
// Acceleration: Co-design and Deployment in the Wild" (ASPLOS 2021): a
// complete software video codec with H.264-class and VP9-class profiles,
// the transcoding pipelines (SOT/MOT, chunked parallel processing), a
// discrete-event model of the VCU accelerator and its hosts, the
// multi-dimensional bin-packing work scheduler, a cluster control plane
// with the paper's failure-management mechanisms, and the analytic
// system-balance models — everything needed to regenerate the paper's
// tables and figures.
//
// This file is the public facade: it re-exports the types and entry
// points the programs under examples/ are written against, so an
// application depends on a single import path. A name is here because
// an example or facade_test.go uses it. The implementation lives in
// internal/ packages, one per subsystem (see DESIGN.md for the
// inventory).
//
// Quick start:
//
//	src := openvcu.NewSource(openvcu.SourceConfig{Width: 640, Height: 360, Seed: 1, Detail: 0.5, Motion: 2})
//	frames := src.Frames(30)
//	res, err := openvcu.EncodeSequence(openvcu.EncoderConfig{
//	    Profile: openvcu.VP9Class, Width: 640, Height: 360,
//	    RC: openvcu.RateControl{Mode: openvcu.RCTwoPassOffline, TargetBitrate: 800_000},
//	}, frames)
//	decoded, err := openvcu.DecodeSequence(res.Packets)
package openvcu

import (
	"openvcu/internal/cluster"
	"openvcu/internal/codec"
	"openvcu/internal/codec/rc"
	"openvcu/internal/metrics"
	"openvcu/internal/transcode"
	"openvcu/internal/vbench"
	"openvcu/internal/vcu"
	"openvcu/internal/video"
	"openvcu/internal/workload"
)

// --- raw video ---------------------------------------------------------------

// Frame is an 8-bit YUV 4:2:0 picture.
type Frame = video.Frame

// Resolution is a named point on the 16:9 output ladder.
type Resolution = video.Resolution

// Points of the standard output ladder (paper footnote 1).
var (
	Res480p  = video.Res480p
	Res1080p = video.Res1080p
	Res1440p = video.Res1440p
	Res2160p = video.Res2160p
)

// SourceConfig describes a deterministic procedural test clip.
type SourceConfig = video.SourceConfig

// NewSource builds a procedural video source.
func NewSource(cfg SourceConfig) *video.Source { return video.NewSource(cfg) }

// Scale resamples a frame.
func Scale(f *Frame, w, h int) *Frame { return video.Scale(f, w, h) }

// SequencePSNR returns the pooled PSNR between two frame sequences.
func SequencePSNR(a, b []*Frame) float64 { return video.SequencePSNR(a, b) }

// --- codec -------------------------------------------------------------------

// Profile selects the coding toolset.
type Profile = codec.Profile

// The paper's two formats.
const (
	H264Class = codec.H264Class
	VP9Class  = codec.VP9Class
)

// EncoderConfig parameterizes an encoder.
type EncoderConfig = codec.Config

// EncodeSequence encodes frames end to end (running a first pass when the
// rate-control mode needs one).
func EncodeSequence(cfg EncoderConfig, frames []*Frame) (*codec.SequenceResult, error) {
	return codec.EncodeSequence(cfg, frames)
}

// DecodeSequence decodes packets to display frames.
func DecodeSequence(pkts []codec.Packet) ([]*Frame, error) { return codec.DecodeSequence(pkts) }

// RateControl configures encoder rate control.
type RateControl = rc.Config

// Rate-control modes (paper §2.1).
const (
	RCOnePass           = rc.ModeOnePass
	RCTwoPassLowLatency = rc.ModeTwoPassLowLatency
	RCTwoPassLagged     = rc.ModeTwoPassLagged
	RCTwoPassOffline    = rc.ModeTwoPassOffline
)

// --- transcoding -------------------------------------------------------------

// OutputSpec describes one transcode output variant.
type OutputSpec = transcode.OutputSpec

// SOT transcodes frames into a single output (paper Fig. 2a).
func SOT(frames []*Frame, fps int, spec OutputSpec) (*transcode.Result, error) {
	return transcode.SOT(frames, fps, spec)
}

// SplitChunks shards frames into closed GOPs for parallel processing.
func SplitChunks(frames []*Frame, gopLen int) []transcode.Chunk {
	return transcode.SplitChunks(frames, gopLen)
}

// ChunkedTranscode runs a MOT per chunk in parallel and assembles
// playable per-output streams.
func ChunkedTranscode(chunks []transcode.Chunk, fps int, specs []OutputSpec, parallelism int) (*transcode.ChunkedResult, error) {
	return transcode.Chunked(chunks, fps, specs, parallelism)
}

// LadderSpecs builds the standard MOT output ladder for an input.
func LadderSpecs(in Resolution, p Profile, bitsPerPixel float64, fps int, hardware bool) []OutputSpec {
	return transcode.LadderSpecs(in, p, bitsPerPixel, fps, hardware)
}

// --- accelerator model, scheduler & cluster ------------------------------------

// DefaultVCUParams returns the production configuration (10 encoder
// cores, 3 decoder cores, 36 GiB/s DRAM, 20 VCUs/host).
func DefaultVCUParams() vcu.Params { return vcu.DefaultParams() }

// EncodeTwoPassOffline is the offline two-pass encode mode of a step.
const EncodeTwoPassOffline = vcu.EncodeTwoPassOffline

// VideoSpec describes one uploaded video.
type VideoSpec = cluster.VideoSpec

// WorkGraph is a video's acyclic task dependency graph.
type WorkGraph = cluster.Graph

// NewRegion builds n clusters sharing one simulation clock, with global
// overflow routing (§2.2: videos process near the uploader unless local
// capacity is unavailable).
func NewRegion(cfg cluster.Config, n int) *cluster.Region { return cluster.NewRegion(cfg, n) }

// NewCluster builds a simulated cluster.
func NewCluster(cfg cluster.Config) *cluster.Cluster { return cluster.New(cfg) }

// DefaultClusterConfig returns a production-like configuration with all
// §4.4 failure mitigations enabled.
func DefaultClusterConfig(hosts int) cluster.Config { return cluster.DefaultConfig(hosts) }

// BuildGraph expands a video into its work graph.
func BuildGraph(spec VideoSpec, stepTargetSeconds float64) *WorkGraph {
	return cluster.BuildGraph(spec, stepTargetSeconds)
}

// --- evaluation ---------------------------------------------------------------

// RDPoint is one rate/quality operating point.
type RDPoint = metrics.RDPoint

// BDRate returns the Bjøntegaard-delta bitrate of test vs ref in percent.
func BDRate(ref, test []RDPoint) (float64, error) { return metrics.BDRate(ref, test) }

// VbenchSuite is the 15-clip suite of §4.1.
func VbenchSuite() []vbench.Clip { return vbench.Suite }

// GenerateCorpus builds an n-video popularity-modeled corpus (§2.2:
// stretched power law, three treatment buckets).
func GenerateCorpus(n int, seed uint64) *workload.Corpus { return workload.Generate(n, seed) }

// VP9 treatment policies for the §4.5 egress experiment.
const (
	PolicyCPUEra = workload.PolicyCPUEra
	PolicyVCUEra = workload.PolicyVCUEra
)

// ApplyPolicy evaluates a VP9 treatment policy over a corpus.
var ApplyPolicy = workload.Apply

// DefaultEgressModel returns the serving-side constants.
func DefaultEgressModel() workload.EgressModel { return workload.DefaultEgressModel() }
