package codec

import (
	"hash/crc32"
	"testing"

	"openvcu/internal/codec/rc"
	"openvcu/internal/video"
)

// TestEncodePinnedDigests holds four small encodes to the CRC-32 of their
// packets. Every other encoder test compares the encoder with itself —
// across workers, tiles, GOP spans, its own decoder — so a kernel change
// that moves a bitstream byte passes them all; this is the test that does
// not. They cover the upload's encode (VP9-class, Hardware, two-pass),
// the software path with its RDOQ pass at a constant QP, the live shape
// (H.264-class, one-pass, two tile columns), and the AV1-class tools at
// Speed 1: the compound candidate, GOLDEN references and restoration.
// Workers is 1: the tile count fixes the bitstream, and no goroutine
// starts.
//
// A change meant to move bitstreams updates the values and says why.
func TestEncodePinnedDigests(t *testing.T) {
	const w, h = 320, 176
	src := video.NewSource(video.SourceConfig{
		Width: w, Height: h, Seed: 5, Detail: 0.7, Motion: 2.5,
		ObjectMotion: 3.5, Objects: 2}).Frames(6)
	for _, c := range []struct {
		name string
		cfg  Config
		want uint32
	}{
		{"vp9-hardware-two-pass", Config{Profile: VP9Class, Speed: 2, Hardware: true, GOPLength: 6,
			RC: rc.Config{Mode: rc.ModeTwoPassOffline, TargetBitrate: w * h * 30 * 8 / 100}}, 0xb70032ed},
		{"vp9-software-const-qp", Config{Profile: VP9Class, Speed: 2,
			RC: rc.Config{BaseQP: 44}}, 0x06fc4439},
		{"h264-one-pass-2-tiles", Config{Profile: H264Class, Speed: 2, Hardware: true, TileColumns: 2,
			RC: rc.Config{Mode: rc.ModeOnePass, BaseQP: 30, TargetBitrate: w * h * 30 / 10}}, 0xba4e65a9},
		{"av1-speed-1-compound", Config{Profile: AV1Class, Speed: 1, GOPLength: 6,
			RC: rc.Config{BaseQP: 36}}, 0x3c0702cc},
	} {
		c.cfg.Width, c.cfg.Height, c.cfg.FPS, c.cfg.Workers = w, h, 30, 1
		res := mustEncode(t, c.cfg, src)
		sum := crc32.NewIEEE()
		for _, p := range res.Packets {
			sum.Write(p.Data)
		}
		if got := sum.Sum32(); got != c.want {
			t.Errorf("%s: packets' CRC-32 %#08x, pinned %#08x: the bitstream has changed", c.name, got, c.want)
		}
	}
}
