package codec

import (
	"fmt"
	"testing"

	"openvcu/internal/codec/rc"
	"openvcu/internal/video"
)

// bench720pFrames builds the synthetic 1280×720 clip used by the tracked
// whole-frame encode benchmark (the ledger's codec.encode_*_mpix_per_s
// rows time the same kind of encode).
func bench720pFrames(n int) []*video.Frame {
	return video.NewSource(video.SourceConfig{
		Width: 1280, Height: 720, Seed: 7, Detail: 0.5, Motion: 1.5,
		ObjectMotion: 2, Objects: 2}).Frames(n)
}

// benchEncode times EncodeSequence(cfg, frames) and reports encoded
// megapixels per second.
func benchEncode(b *testing.B, cfg Config, frames []*video.Frame) {
	b.ReportAllocs()
	perOp := int64(len(frames)) * int64(cfg.Width) * int64(cfg.Height)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeSequence(cfg, frames); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(perOp)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpix/s")
}

// BenchmarkEncodeFrame720p is the headline hot-path benchmark: a 3-frame
// 1280×720 VP9-class encode (keyframe + two inter frames), reported in
// encoded megapixels per second.
func BenchmarkEncodeFrame720p(b *testing.B) {
	frames := bench720pFrames(3)
	cfg := Config{Profile: VP9Class, Width: 1280, Height: 720,
		RC: rc.Config{BaseQP: 32}}
	benchEncode(b, cfg, frames)
}

// BenchmarkEncodeFrame720pFlat is the same encode with pyramid search
// disabled, isolating the multi-resolution seeding's contribution.
func BenchmarkEncodeFrame720pFlat(b *testing.B) {
	frames := bench720pFrames(3)
	cfg := Config{Profile: VP9Class, Width: 1280, Height: 720,
		RC: rc.Config{BaseQP: 32}, flatSearch: true}
	benchEncode(b, cfg, frames)
}

// BenchmarkEncodeUploadRung is the encode the upload path runs (the
// benchmark's upload_ladder, top rung of one chunk): VP9-class 640×360,
// Speed 2 under the hardware restrictions, two-pass offline rate control
// at 0.08 bit/pixel, one 6-frame closed GOP. `make profile-encode` prints
// this profile first; the 720p benchmarks run at Speed 0.
func BenchmarkEncodeUploadRung(b *testing.B) {
	src := video.NewSource(video.SourceConfig{
		Width: 640, Height: 360, Seed: 7, Detail: 0.7, Motion: 3,
		ObjectMotion: 4.5, Objects: 3}).Frames(6)
	cfg := Config{Profile: VP9Class, Width: 640, Height: 360, FPS: 30, Speed: 2, Hardware: true,
		GOPLength: 6, RC: rc.Config{Mode: rc.ModeTwoPassOffline, TargetBitrate: 640 * 360 * 30 * 8 / 100}}
	benchEncode(b, cfg, src)
}

// BenchmarkEncodeSpeeds tracks the speed ladder at 640×360 so regressions
// off the default path are visible too.
func BenchmarkEncodeSpeeds(b *testing.B) {
	src := video.NewSource(video.SourceConfig{
		Width: 640, Height: 360, Seed: 7, Detail: 0.5, Motion: 1.5,
		ObjectMotion: 2, Objects: 2}).Frames(3)
	for _, speed := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("speed%d", speed), func(b *testing.B) {
			cfg := Config{Profile: VP9Class, Width: 640, Height: 360,
				Speed: speed, RC: rc.Config{BaseQP: 32}}
			benchEncode(b, cfg, src)
		})
	}
}
