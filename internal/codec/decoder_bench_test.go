package codec

import (
	"testing"

	"openvcu/internal/codec/rc"
	"openvcu/internal/video"
)

// playbackStreams encodes the streams the benchmark's playback_decode
// workload reads: a VP9-class ladder of 360p, 240p and 144p (Speed 2
// under the hardware restrictions, two-pass at 0.12 bit/pixel, 6-frame
// closed GOPs) scaled from one 360p clip, and a 360p H.264-class stream
// in two tile columns.
func playbackStreams(tb testing.TB) [][]Packet {
	const n, fps, gop = 12, 30, 6
	src := video.NewSource(video.SourceConfig{
		Width: 640, Height: 360, Seed: 7, Detail: 0.5, Motion: 1.5,
		ObjectMotion: 2.5, Objects: 2}).Frames(n)
	var streams [][]Packet
	encode := func(cfg Config, frames []*video.Frame) {
		res, err := EncodeSequence(cfg, frames)
		if err != nil {
			tb.Fatal(err)
		}
		streams = append(streams, res.Packets)
	}
	for _, r := range []video.Resolution{video.Res360p, video.Res240p, video.Res144p} {
		frames := make([]*video.Frame, n)
		for i, f := range src {
			frames[i] = video.ScaleTo(f, r)
		}
		encode(Config{Profile: VP9Class, Width: r.Width, Height: r.Height, FPS: fps, GOPLength: gop,
			Speed: 2, Hardware: true, Workers: 1,
			RC: rc.Config{Mode: rc.ModeTwoPassOffline, TargetBitrate: r.Pixels() * fps * 12 / 100}}, frames)
	}
	encode(Config{Profile: H264Class, Width: 640, Height: 360, FPS: fps, GOPLength: gop,
		Speed: 2, TileColumns: 2, Workers: 2, RC: rc.Config{BaseQP: 28}}, src)
	return streams
}

// BenchmarkDecodePlayback decodes the playback streams, one decoder per
// stream as the workload does, and reports decoded megapixels per
// second. `make profile-decode` prints its CPU profile.
func BenchmarkDecodePlayback(b *testing.B) {
	streams := playbackStreams(b)
	var pixels int64
	for _, pkts := range streams {
		key, err := NewDecoder().Decode(pkts[0].Data)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pkts {
			if p.Show {
				pixels += int64(key.Width * key.Height)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pkts := range streams {
			if _, err := DecodeSequence(pkts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(pixels)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpix/s")
}
