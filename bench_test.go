// Benchmarks that are the only producers of numbers EXPERIMENTS.md
// records: the MOT-over-SOT ratio (Table 1), the calibrated production
// levels (Figure 8), the measured launch-vs-tuned BD-rate (Figure 10) and
// the Go encoder's speed per profile (§4.5). Every other recorded number
// is printed by a command under cmd/ or examples/; EXPERIMENTS.md names
// the one command line behind each cell, and `make experiments` runs them
// all in table order.
package openvcu_test

import (
	"testing"
	"time"

	"openvcu/internal/codec"
	"openvcu/internal/codec/rc"
	"openvcu/internal/metrics"
	"openvcu/internal/tco"
	"openvcu/internal/vbench"
	"openvcu/internal/vcu"
	"openvcu/internal/video"
)

// BenchmarkTable1_MOTvsSOT regenerates the MOT-over-SOT throughput ratio
// (paper: 1.2-1.3x, 976/927 Mpix/s per VCU).
func BenchmarkTable1_MOTvsSOT(b *testing.B) {
	var ratio, motPerVCU float64
	for i := 0; i < b.N; i++ {
		p := vcu.DefaultParams()
		sot := vcu.RunThroughput(p, 4, vcu.Workload{Mode: vcu.ModeSOT, Profile: codec.H264Class,
			Encode: vcu.EncodeTwoPassOffline, InputRes: video.Res1080p}, 120*time.Second)
		mot := vcu.RunThroughput(p, 4, vcu.Workload{Mode: vcu.ModeMOT, Profile: codec.H264Class,
			Encode: vcu.EncodeTwoPassOffline, InputRes: video.Res1080p}, 120*time.Second)
		ratio = mot.MpixPerSec / sot.MpixPerSec
		motPerVCU = mot.PerVCUMpixPerSec
	}
	b.ReportMetric(ratio, "MOT/SOT-ratio")
	b.ReportMetric(motPerVCU, "Mpix/s-perVCU-MOT")
}

// BenchmarkFigure8_ProductionThroughput regenerates the per-VCU
// production throughput levels (paper: MOT ~400, SOT ~250 Mpix/s).
func BenchmarkFigure8_ProductionThroughput(b *testing.B) {
	var r tco.MOTvsSOT
	for i := 0; i < b.N; i++ {
		r = tco.ProductionThroughput(vcu.DefaultParams(), 120*time.Second)
	}
	b.ReportMetric(r.MOTPerVCU, "Mpix/s-MOT-production")
	b.ReportMetric(r.SOTPerVCU, "Mpix/s-SOT-production")
}

// BenchmarkFigure10_BitrateTuning validates the rate-control tuning story
// with real encodes: the launch-tuned encoder needs more bits than the
// fully-tuned one at the same quality (the mechanism behind Figure 10's
// +12% -> -2% trajectory, whose drawn series `cmd/fleetsim -fig10`
// prints).
func BenchmarkFigure10_BitrateTuning(b *testing.B) {
	clip, _ := vbench.ByName("bike")
	var launchVsTuned float64
	for i := 0; i < b.N; i++ {
		tuned, err := vbench.RunRD(clip, vbench.EncoderUnderTest{
			Label: "tuned", Profile: codec.VP9Class, Hardware: true, Tuning: rc.MaxTuning}, 16, 12)
		if err != nil {
			b.Fatal(err)
		}
		launch, err := vbench.RunRD(clip, vbench.EncoderUnderTest{
			Label: "launch", Profile: codec.VP9Class, Hardware: true, Tuning: 0}, 16, 12)
		if err != nil {
			b.Fatal(err)
		}
		bd, err := metrics.BDRate(tuned.Points, launch.Points)
		if err != nil {
			b.Fatal(err)
		}
		launchVsTuned = bd
	}
	b.ReportMetric(launchVsTuned, "BDrate%-launch-vs-tuned-measured")
}

// BenchmarkEncode_Profiles measures the real Go encoder's wall-clock
// speed for both profiles (the paper's VP9-is-6-8x-costlier claim shows
// up in the software encoder itself). Each iteration encodes the clip
// with both profiles, alternating which goes first, and each profile's
// time is summed over the iterations, so drift on a shared host lands
// on both sides alike: the vp9/h264-time ratio is the recorded number.
// Both encode on one worker, so the ratio is of work, not of how much of
// a second core the host lends each.
func BenchmarkEncode_Profiles(b *testing.B) {
	frames := video.NewSource(video.SourceConfig{
		Width: 128, Height: 72, Seed: 3, Detail: 0.5, Motion: 1.5, Objects: 1}).Frames(4)
	profiles := [2]codec.Profile{codec.H264Class, codec.VP9Class}
	var spent [2]time.Duration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for k := range profiles {
			p := (i + k) % 2
			cfg := codec.Config{Profile: profiles[p], Width: 128, Height: 72, Workers: 1, RC: rc.Config{BaseQP: 32}}
			t0 := time.Now()
			if _, err := codec.EncodeSequence(cfg, frames); err != nil {
				b.Fatal(err)
			}
			spent[p] += time.Since(t0)
		}
	}
	pixels := float64(b.N*len(frames)) * 128 * 72
	b.ReportMetric(pixels/spent[0].Seconds()/1e6, "Mpix/s-h264")
	b.ReportMetric(pixels/spent[1].Seconds()/1e6, "Mpix/s-vp9")
	b.ReportMetric(spent[1].Seconds()/spent[0].Seconds(), "vp9/h264-time")
}
