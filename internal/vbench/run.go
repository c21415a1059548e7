package vbench

import (
	"fmt"

	"openvcu/internal/codec"
	"openvcu/internal/codec/rc"
	"openvcu/internal/metrics"
	"openvcu/internal/video"
)

// EncoderUnderTest identifies one encoder configuration in a Figure 7
// style comparison.
type EncoderUnderTest struct {
	Label    string
	Profile  codec.Profile
	Hardware bool // VCU pipeline restrictions vs. software encoder
	Speed    int
	Tuning   int // rate-control tuning level (months post-launch)
	AltRef   bool
}

// StandardEncoders are the four curves of Figure 7 at VCU launch: the
// software encoders carry years of rate-control calibration (full
// tuning), while the hardware encoders ship at launch tuning — the gap
// Figure 10 then closes.
var StandardEncoders = []EncoderUnderTest{
	{Label: "libx264-sw", Profile: codec.H264Class, Tuning: rc.MaxTuning},
	{Label: "vcu-h264", Profile: codec.H264Class, Hardware: true, Tuning: 0},
	{Label: "libvpx-sw", Profile: codec.VP9Class, AltRef: true, Tuning: rc.MaxTuning},
	{Label: "vcu-vp9", Profile: codec.VP9Class, Hardware: true, AltRef: true, Tuning: 0},
}

// RunRD encodes the clip at every ladder bitrate with the encoder under
// test and returns its operational RD curve (real encodes: the bitrate is
// what the encoder produced and PSNR is measured on the decoded output).
func RunRD(clip Clip, eut EncoderUnderTest, scale, frames int) (metrics.RDCurve, error) {
	srcCfg := clip.SourceConfig(scale, frames)
	src := video.NewSource(srcCfg).Frames(frames)
	curve := metrics.RDCurve{Label: fmt.Sprintf("%s/%s", clip.Name, eut.Label)}
	seconds := float64(frames) / float64(clip.FPS)
	for _, target := range clip.TargetBitrates(scale) {
		cfg := codec.Config{
			Profile: eut.Profile,
			Width:   srcCfg.Width, Height: srcCfg.Height, FPS: clip.FPS,
			Speed:    eut.Speed,
			Hardware: eut.Hardware,
			AltRef:   eut.AltRef,
			RC: rc.Config{
				Mode:          rc.ModeTwoPassOffline,
				TargetBitrate: target,
				Tuning:        eut.Tuning,
			},
		}
		res, err := codec.EncodeSequence(cfg, src)
		if err != nil {
			return curve, fmt.Errorf("vbench %s @%d: %w", clip.Name, target, err)
		}
		dec, err := codec.DecodeSequence(res.Packets)
		if err != nil {
			return curve, fmt.Errorf("vbench %s @%d decode: %w", clip.Name, target, err)
		}
		curve.Points = append(curve.Points, metrics.RDPoint{
			BitsPerSecond: float64(res.TotalBits) / seconds,
			PSNR:          video.SequencePSNR(src, dec),
		})
	}
	return curve, nil
}
