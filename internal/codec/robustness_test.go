package codec

import (
	"testing"

	"openvcu/internal/codec/rc"
	"openvcu/internal/video"
)

// TestDecoderSurvivesBitstreamCorruption is the §4.4 premise: corruption
// happens in production and decoders must fail cleanly, never crash. Flip
// bytes all over a valid stream; every decode attempt must either return
// an error or produce a (possibly garbage) frame — no panics, no hangs.
func TestDecoderSurvivesBitstreamCorruption(t *testing.T) {
	frames := video.NewSource(video.SourceConfig{
		Width: 96, Height: 64, Seed: 21, Detail: 0.6, Motion: 1, Objects: 1}).Frames(4)
	for _, profile := range []Profile{H264Class, VP9Class} {
		res, err := EncodeSequence(Config{Profile: profile, Width: 96, Height: 64,
			RC: rc.Config{BaseQP: 32}}, frames)
		if err != nil {
			t.Fatal(err)
		}
		rng := uint64(7)
		next := func(n int) int {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int(rng % uint64(n))
		}
		for trial := 0; trial < 200; trial++ {
			dec := NewDecoder()
			for pi, p := range res.Packets {
				data := append([]byte(nil), p.Data...)
				// Corrupt one random byte of one random packet per trial.
				if pi == trial%len(res.Packets) {
					data[next(len(data))] ^= byte(1 + next(255))
				}
				if _, err := dec.Decode(data); err != nil {
					break // clean failure is the expected outcome
				}
			}
		}
	}
}

// TestDecoderStateNotPoisonedByCorruption: after rejecting a corrupted
// packet, the same decoder instance must keep working — no panics on
// subsequent input, and once it sees a fresh keyframe the stream
// decodes cleanly again. A decoder that has to be thrown away after
// every bad packet would turn one corrupt chunk into a whole-stream
// outage (§4.4 blast radius).
func TestDecoderStateNotPoisonedByCorruption(t *testing.T) {
	frames := video.NewSource(video.SourceConfig{
		Width: 96, Height: 64, Seed: 83, Detail: 0.6, Motion: 1, Objects: 1}).Frames(4)
	for _, profile := range []Profile{H264Class, VP9Class} {
		res, err := EncodeSequence(Config{Profile: profile, Width: 96, Height: 64,
			RC: rc.Config{BaseQP: 32}}, frames)
		if err != nil {
			t.Fatal(err)
		}
		rng := uint64(17)
		next := func(n int) int {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int(rng % uint64(n))
		}
		for trial := 0; trial < 50; trial++ {
			dec := NewDecoder()
			// Feed a corrupted copy of a random packet first; it may
			// error or produce garbage, but must not poison the decoder.
			bad := append([]byte(nil), res.Packets[next(len(res.Packets))].Data...)
			for i := 0; i < 4; i++ {
				bad[next(len(bad))] ^= byte(1 + next(255))
			}
			_, _ = dec.Decode(bad)
			// Now play the valid stream into the SAME decoder. From the
			// keyframe on, every packet must decode without error.
			sawKey := false
			for pi, p := range res.Packets {
				f, err := dec.Decode(p.Data)
				if pi == 0 && err == nil {
					sawKey = true
				}
				if sawKey && err != nil {
					t.Fatalf("profile %v trial %d: valid packet %d failed after corruption: %v",
						profile, trial, pi, err)
				}
				if sawKey && pi == 0 && f == nil {
					t.Fatal("keyframe produced no frame")
				}
			}
			if !sawKey {
				// The corrupted packet may have locked in mismatched
				// stream dimensions; that is a clean, reported error —
				// but it must be consistent, not a crash.
				if _, err := dec.Decode(res.Packets[0].Data); err == nil {
					t.Fatalf("profile %v trial %d: keyframe rejected then accepted", profile, trial)
				}
			}
		}
	}
}

// TestDecoderSurvivesTruncation feeds every prefix length of a packet.
func TestDecoderSurvivesTruncation(t *testing.T) {
	frames := video.NewSource(video.SourceConfig{
		Width: 64, Height: 64, Seed: 22, Detail: 0.5}).Frames(2)
	res, err := EncodeSequence(Config{Profile: VP9Class, Width: 64, Height: 64,
		RC: rc.Config{BaseQP: 30}}, frames)
	if err != nil {
		t.Fatal(err)
	}
	key := res.Packets[0].Data
	for n := 0; n < len(key); n += 7 {
		dec := NewDecoder()
		_, _ = dec.Decode(key[:n]) // must not panic
	}
}

// TestEncoderDeterminism: identical inputs and configuration must produce
// byte-identical streams — the property golden-task screening relies on
// ("relying on the core's deterministic behavior", §4.4).
func TestEncoderDeterminism(t *testing.T) {
	frames := video.NewSource(video.SourceConfig{
		Width: 96, Height: 64, Seed: 23, Detail: 0.6, Motion: 2, Noise: 3}).Frames(5)
	cfg := Config{Profile: VP9Class, Width: 96, Height: 64,
		RC: rc.Config{Mode: rc.ModeTwoPassOffline, TargetBitrate: 300_000}}
	a, err := EncodeSequence(cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeSequence(cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Packets) != len(b.Packets) {
		t.Fatalf("packet counts differ: %d vs %d", len(a.Packets), len(b.Packets))
	}
	for i := range a.Packets {
		if string(a.Packets[i].Data) != string(b.Packets[i].Data) {
			t.Fatalf("packet %d differs between identical runs", i)
		}
	}
}

// TestEncoderReconMatchesDecoder is the core codec invariant: the
// encoder's internal reconstruction equals the decoder's output exactly,
// so references never drift.
func TestEncoderReconMatchesDecoder(t *testing.T) {
	frames := video.NewSource(video.SourceConfig{
		Width: 96, Height: 64, Seed: 24, Detail: 0.7, Motion: 2, Objects: 2}).Frames(6)
	for _, profile := range []Profile{H264Class, VP9Class} {
		cfg := Config{Profile: profile, Width: 96, Height: 64, RC: rc.Config{BaseQP: 34}}
		enc, err := NewEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dec := NewDecoder()
		for i, f := range frames {
			pkts, err := enc.Encode(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkts {
				got, err := dec.Decode(p.Data)
				if err != nil {
					t.Fatal(err)
				}
				if got == nil {
					continue
				}
				// A shown frame refreshes LAST: the encoder's reference is
				// its reconstruction, and the decoder's output must be it,
				// byte for byte.
				if !sameFrame(got, cropFrame(enc.refs[RefLast].frame, 96, 64)) {
					t.Fatalf("profile %v frame %d: decoded frame differs from the encoder's reconstruction", profile, i)
				}
			}
		}
		// Final check: full-sequence PSNR is sane (no drift collapse).
		enc2, _ := NewEncoder(cfg)
		var all []Packet
		for _, f := range frames {
			pkts, err := enc2.Encode(f)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, pkts...)
		}
		decd, err := DecodeSequence(all)
		if err != nil {
			t.Fatal(err)
		}
		if psnr := video.SequencePSNR(frames, decd); psnr < 25 {
			t.Fatalf("profile %v: PSNR %.2f suggests reference drift", profile, psnr)
		}
	}
}

func TestErrorConcealmentKeepsPlaybackGoing(t *testing.T) {
	frames := video.NewSource(video.SourceConfig{
		Width: 64, Height: 64, Seed: 81, Detail: 0.5, Motion: 1}).Frames(6)
	res, err := EncodeSequence(Config{Profile: VP9Class, Width: 64, Height: 64,
		RC: rc.Config{BaseQP: 32}}, frames)
	if err != nil {
		t.Fatal(err)
	}
	// Destroy packet 3's body so it cannot decode.
	bad := append([]byte(nil), res.Packets[3].Data...)
	for i := 5; i < len(bad); i++ {
		bad[i] = 0xFF
	}
	dec := NewDecoder()
	dec.SetConcealment(true)
	shown := 0
	for i, p := range res.Packets {
		data := p.Data
		if i == 3 {
			data = bad
		}
		f, err := dec.Decode(data)
		if err != nil {
			t.Fatalf("packet %d errored despite concealment: %v", i, err)
		}
		if f != nil {
			shown++
			if f.Width != 64 || f.Height != 64 {
				t.Fatalf("concealed frame has wrong dims %dx%d", f.Width, f.Height)
			}
		}
	}
	if shown != len(frames) {
		t.Fatalf("playback produced %d frames, want %d", shown, len(frames))
	}
	if dec.Concealed == 0 {
		t.Fatal("concealment never triggered")
	}
}

func TestConcealmentOffStillErrors(t *testing.T) {
	frames := video.NewSource(video.SourceConfig{
		Width: 64, Height: 64, Seed: 82, Detail: 0.5}).Frames(2)
	res, err := EncodeSequence(Config{Profile: VP9Class, Width: 64, Height: 64,
		RC: rc.Config{BaseQP: 32}}, frames)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	if _, err := dec.Decode(res.Packets[0].Data); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), res.Packets[1].Data...)
	for i := 5; i < len(bad); i++ {
		bad[i] = 0xFF
	}
	if _, err := dec.Decode(bad); err == nil {
		t.Fatal("hard-corrupted frame decoded without error and without concealment")
	}
}
