package filter_test

import (
	"testing"

	"openvcu/internal/codec"
	"openvcu/internal/codec/filter"
	"openvcu/internal/codec/rc"
	"openvcu/internal/video"
)

// BenchmarkDeblock360p deblocks decoded 360p frames, one op per frame,
// on the calling goroutine at block size 16 (the codec's MinPartition)
// and strength 6: the decoder's in-loop deblocking, on the content it
// runs on. The frames are the decode of a 12-frame VP9-class stream of
// the playback workload's 360p clip; each op copies its frame into the
// work frame first, as the deblock runs in place.
func BenchmarkDeblock360p(b *testing.B) {
	const n = 12
	src := video.NewSource(video.SourceConfig{
		Width: 640, Height: 360, Seed: 7, Detail: 0.5, Motion: 1.5,
		ObjectMotion: 2.5, Objects: 2}).Frames(n)
	res, err := codec.EncodeSequence(codec.Config{Profile: codec.VP9Class, Width: 640, Height: 360,
		FPS: 30, GOPLength: 6, Speed: 2, Hardware: true, Workers: 1,
		RC: rc.Config{Mode: rc.ModeTwoPassOffline, TargetBitrate: 640 * 360 * 30 * 12 / 100}}, src)
	if err != nil {
		b.Fatal(err)
	}
	frames, err := codec.DecodeSequence(res.Packets)
	if err != nil {
		b.Fatal(err)
	}
	work := frames[0].Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work.CopyFrom(frames[i%len(frames)])
		filter.DeblockParallel(work, 16, 6, 1)
	}
}
