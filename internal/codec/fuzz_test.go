package codec

import (
	"testing"

	"openvcu/internal/codec/rc"
	"openvcu/internal/video"
)

// fuzzSeedStreams returns a short valid stream of each hardware profile,
// keyframe first: the seed corpus FuzzDecode mutates from
// (testdata/fuzz/FuzzDecode holds the same packets checked in, so CI
// needs no encoder warm-up to start from interesting inputs).
func fuzzSeedStreams(tb testing.TB) [][][]byte {
	var streams [][][]byte
	for _, profile := range []Profile{H264Class, VP9Class} {
		frames := video.NewSource(video.SourceConfig{
			Width: 64, Height: 48, Seed: 31, Detail: 0.6, Motion: 1, Objects: 1}).Frames(3)
		res, err := EncodeSequence(Config{Profile: profile, Width: 64, Height: 48,
			RC: rc.Config{BaseQP: 32}}, frames)
		if err != nil {
			tb.Fatal(err)
		}
		var stream [][]byte
		for _, p := range res.Packets {
			stream = append(stream, p.Data)
		}
		streams = append(streams, stream)
	}
	return streams
}

// FuzzDecode is the §4.4 robustness contract as a fuzz target: an
// arbitrary byte string fed to the decoder must produce a frame or a
// clean error — never a panic, hang, or runaway allocation — and a
// failed packet must not poison the decoder for subsequent input. The
// input meets a fresh decoder and decoders primed with the keyframe of
// each profile's seed stream, so it is also the frame after a keyframe
// that may be of another profile.
func FuzzDecode(f *testing.F) {
	streams := fuzzSeedStreams(f)
	for _, stream := range streams {
		for _, s := range stream {
			f.Add(s)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decode := func(dec *Decoder) {
			frame, err := dec.Decode(data)
			if err == nil && frame != nil {
				if frame.Width <= 0 || frame.Height <= 0 ||
					frame.Width > maxFrameDim || frame.Height > maxFrameDim {
					t.Fatalf("accepted frame with dimensions %dx%d", frame.Width, frame.Height)
				}
			}
			// State poisoning: whatever the packet did, the same decoder
			// must survive seeing it again.
			_, _ = dec.Decode(data)
		}
		decode(NewDecoder())
		for _, stream := range streams {
			dec := NewDecoder()
			if _, err := dec.Decode(stream[0]); err != nil {
				t.Fatal(err)
			}
			decode(dec)
		}
	})
}
