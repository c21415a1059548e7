package codec

import (
	"math"
	"testing"

	"openvcu/internal/codec/rc"
	"openvcu/internal/video"
)

func testSource(w, h int, seed uint64, frames int) []*video.Frame {
	return video.NewSource(video.SourceConfig{
		Width: w, Height: h, Seed: seed,
		Detail: 0.5, Motion: 1.5, Objects: 1, ObjectMotion: 2,
	}).Frames(frames)
}

func mustEncode(t *testing.T, cfg Config, frames []*video.Frame) *SequenceResult {
	t.Helper()
	res, err := EncodeSequence(cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustDecode(t *testing.T, packets []Packet) []*video.Frame {
	t.Helper()
	out, err := DecodeSequence(packets)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func roundTrip(t *testing.T, cfg Config, frames []*video.Frame) ([]*video.Frame, *SequenceResult) {
	t.Helper()
	res := mustEncode(t, cfg, frames)
	dec := mustDecode(t, res.Packets)
	if len(dec) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(dec), len(frames))
	}
	return dec, res
}

func TestRoundTripH264Class(t *testing.T) {
	frames := testSource(96, 64, 1, 5)
	cfg := Config{Profile: H264Class, Width: 96, Height: 64, RC: rc.Config{BaseQP: 30}}
	dec, res := roundTrip(t, cfg, frames)
	psnr := video.SequencePSNR(frames, dec)
	if psnr < 28 {
		t.Errorf("H264Class PSNR %.2f dB too low", psnr)
	}
	if res.TotalBits == 0 {
		t.Fatal("no bits produced")
	}
}

func TestRoundTripVP9Class(t *testing.T) {
	frames := testSource(128, 64, 2, 5)
	cfg := Config{Profile: VP9Class, Width: 128, Height: 64, RC: rc.Config{BaseQP: 30}}
	dec, _ := roundTrip(t, cfg, frames)
	psnr := video.SequencePSNR(frames, dec)
	if psnr < 28 {
		t.Errorf("VP9Class PSNR %.2f dB too low", psnr)
	}
}

func TestOddDimensionsPadAndCrop(t *testing.T) {
	frames := testSource(70, 50, 3, 3)
	cfg := Config{Profile: VP9Class, Width: 70, Height: 50, RC: rc.Config{BaseQP: 28}}
	dec, _ := roundTrip(t, cfg, frames)
	if dec[0].Width != 70 || dec[0].Height != 50 {
		t.Fatalf("decoded dims %dx%d", dec[0].Width, dec[0].Height)
	}
}

func TestQualityImprovesWithLowerQP(t *testing.T) {
	frames := testSource(96, 64, 4, 3)
	var prevPSNR float64
	var prevBits int
	for i, qp := range []int{45, 30, 15} {
		cfg := Config{Profile: VP9Class, Width: 96, Height: 64, RC: rc.Config{BaseQP: qp}}
		dec, res := roundTrip(t, cfg, frames)
		psnr := video.SequencePSNR(frames, dec)
		if i > 0 {
			if psnr <= prevPSNR {
				t.Errorf("qp=%d PSNR %.2f not better than %.2f", qp, psnr, prevPSNR)
			}
			if res.TotalBits <= prevBits {
				t.Errorf("qp=%d bits %d not more than %d", qp, res.TotalBits, prevBits)
			}
		}
		prevPSNR, prevBits = psnr, res.TotalBits
	}
}

func TestInterFramesCheaperThanIntra(t *testing.T) {
	// A static scene: inter frames should cost a small fraction of the
	// keyframe.
	frames := video.NewSource(video.SourceConfig{Width: 96, Height: 64, Seed: 5, Detail: 0.5}).Frames(4)
	cfg := Config{Profile: VP9Class, Width: 96, Height: 64, RC: rc.Config{BaseQP: 30}}
	res := mustEncode(t, cfg, frames)
	key := res.Packets[0]
	if !key.Keyframe {
		t.Fatal("first packet not a keyframe")
	}
	for _, p := range res.Packets[1:] {
		if p.Bits()*4 > key.Bits() {
			t.Errorf("inter frame %d bits %d not << keyframe %d", p.DisplayIdx, p.Bits(), key.Bits())
		}
	}
}

func TestVP9BeatsH264AtSameQuality(t *testing.T) {
	// The central algorithmic trade-off: VP9-class compresses better.
	frames := testSource(128, 96, 6, 6)
	h264 := mustEncode(t, Config{Profile: H264Class, Width: 128, Height: 96, RC: rc.Config{BaseQP: 32}}, frames)
	h264Dec := mustDecode(t, h264.Packets)
	h264PSNR := video.SequencePSNR(frames, h264Dec)

	// Sweep VP9 QPs to build an RD curve and interpolate the bitrate at
	// the H.264 operating quality.
	type point struct{ bits, psnr float64 }
	var curve []point
	for qp := 38; qp >= 24; qp -= 2 {
		vp9 := mustEncode(t, Config{Profile: VP9Class, Width: 128, Height: 96, RC: rc.Config{BaseQP: qp}}, frames)
		vp9Dec := mustDecode(t, vp9.Packets)
		curve = append(curve, point{float64(vp9.TotalBits), video.SequencePSNR(frames, vp9Dec)})
	}
	for i := 0; i+1 < len(curve); i++ {
		lo, hi := curve[i], curve[i+1]
		if lo.psnr <= h264PSNR && h264PSNR <= hi.psnr {
			f := (h264PSNR - lo.psnr) / (hi.psnr - lo.psnr)
			vp9Bits := lo.bits + f*(hi.bits-lo.bits)
			if vp9Bits >= float64(h264.TotalBits) {
				t.Errorf("VP9 %.0f bits >= H264 %d bits at matched quality %.2f dB",
					vp9Bits, h264.TotalBits, h264PSNR)
			}
			return
		}
	}
	t.Skip("H.264 quality point outside VP9 sweep range")
}

func TestGOPKeyframes(t *testing.T) {
	frames := testSource(64, 64, 7, 9)
	cfg := Config{Profile: H264Class, Width: 64, Height: 64, GOPLength: 4, RC: rc.Config{BaseQP: 32}}
	res := mustEncode(t, cfg, frames)
	for _, p := range res.Packets {
		wantKey := p.DisplayIdx%4 == 0
		if p.Keyframe != wantKey {
			t.Errorf("frame %d keyframe=%v want %v", p.DisplayIdx, p.Keyframe, wantKey)
		}
	}
}

func TestAltRefProducesNonShownPackets(t *testing.T) {
	// Noisy content: the adaptive alt-ref decision must engage (clean
	// content predicts from LAST as well as from a filtered reference,
	// so arf groups are skipped there — see TestAltRefSkippedOnClean).
	frames := video.NewSource(video.SourceConfig{
		Width: 64, Height: 64, Seed: 8, Detail: 0.5, Motion: 1, Noise: 10}).Frames(8)
	cfg := Config{Profile: VP9Class, Width: 64, Height: 64, AltRef: true, ArfPeriod: 4,
		RC: rc.Config{BaseQP: 32}}
	res := mustEncode(t, cfg, frames)
	var nonShown int
	for _, p := range res.Packets {
		if !p.Show {
			nonShown++
			if p.DisplayIdx != -1 {
				t.Error("non-shown packet has a display index")
			}
		}
	}
	if nonShown == 0 {
		t.Fatal("alt-ref enabled but no non-shown packets")
	}
	dec := mustDecode(t, res.Packets)
	if len(dec) != len(frames) {
		t.Fatalf("decoded %d shown frames, want %d", len(dec), len(frames))
	}
}

func TestAltRefSkippedOnClean(t *testing.T) {
	frames := testSource(64, 64, 8, 8) // noise-free translation
	cfg := Config{Profile: VP9Class, Width: 64, Height: 64, AltRef: true, ArfPeriod: 4,
		RC: rc.Config{BaseQP: 32}}
	res := mustEncode(t, cfg, frames)
	for _, p := range res.Packets {
		if !p.Show {
			t.Fatal("alt-ref synthesized for clean content where it cannot pay")
		}
	}
}

func TestAltRefHelpsOnNoisyContent(t *testing.T) {
	// The whole point of the temporal filter (§3.2): on noisy content,
	// alt-ref groups should not cost meaningful bitrate at iso quality
	// (and typically help). Compare total bits at the same base QP.
	frames := video.NewSource(video.SourceConfig{
		Width: 96, Height: 64, Seed: 14, Detail: 0.4, Motion: 0.5, Noise: 12}).Frames(10)
	base := Config{Profile: VP9Class, Width: 96, Height: 64, ArfPeriod: 5,
		RC: rc.Config{BaseQP: 36}}
	withArf := base
	withArf.AltRef = true
	off := mustEncode(t, base, frames)
	on := mustEncode(t, withArf, frames)
	offDec := mustDecode(t, off.Packets)
	onDec := mustDecode(t, on.Packets)
	offPSNR := video.SequencePSNR(frames, offDec)
	onPSNR := video.SequencePSNR(frames, onDec)
	// Alt-ref must buy real quality for bounded extra rate (or save rate
	// outright): roughly RD-neutral-or-better.
	betterRate := on.TotalBits <= off.TotalBits && onPSNR >= offPSNR-0.1
	betterQual := onPSNR >= offPSNR+0.15 && on.TotalBits <= off.TotalBits*12/10
	if !betterRate && !betterQual {
		t.Errorf("alt-ref hurt on noisy content: %d bits %.2f dB -> %d bits %.2f dB",
			off.TotalBits, offPSNR, on.TotalBits, onPSNR)
	}
}

func TestDecoderRejectsInterFirst(t *testing.T) {
	frames := testSource(64, 64, 9, 3)
	cfg := Config{Profile: H264Class, Width: 64, Height: 64, RC: rc.Config{BaseQP: 32}}
	res := mustEncode(t, cfg, frames)
	dec := NewDecoder()
	if _, err := dec.Decode(res.Packets[1].Data); err == nil {
		t.Fatal("decoder accepted inter frame without keyframe")
	}
}

func TestDecoderRejectsGarbage(t *testing.T) {
	dec := NewDecoder()
	if _, err := dec.Decode([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}); err == nil {
		t.Fatal("decoder accepted garbage")
	}
}

func TestEncoderRejectsBadConfig(t *testing.T) {
	if _, err := NewEncoder(Config{Profile: VP9Class}); err == nil {
		t.Fatal("accepted zero dimensions")
	}
	if _, err := NewEncoder(Config{Width: 9000, Height: 64}); err == nil {
		t.Fatal("accepted oversized dimensions")
	}
}

func TestEncoderRejectsWrongFrameSize(t *testing.T) {
	enc, err := NewEncoder(Config{Profile: H264Class, Width: 64, Height: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Encode(video.NewFrame(32, 32)); err == nil {
		t.Fatal("accepted mismatched frame")
	}
}

func TestHardwareModeWorksAndCostsQuality(t *testing.T) {
	frames := testSource(96, 64, 10, 4)
	sw := mustEncode(t, Config{Profile: VP9Class, Width: 96, Height: 64, RC: rc.Config{BaseQP: 34}}, frames)
	hw := mustEncode(t, Config{Profile: VP9Class, Width: 96, Height: 64, Hardware: true, RC: rc.Config{BaseQP: 34}}, frames)
	swDec := mustDecode(t, sw.Packets)
	hwDec := mustDecode(t, hw.Packets)
	swPSNR := video.SequencePSNR(frames, swDec)
	hwPSNR := video.SequencePSNR(frames, hwDec)
	if math.IsInf(swPSNR, 0) || math.IsInf(hwPSNR, 0) {
		t.Fatal("unexpected lossless result")
	}
	// Hardware restrictions shouldn't catastrophically change results.
	if hwPSNR < swPSNR-3 {
		t.Errorf("hardware PSNR %.2f way below software %.2f", hwPSNR, swPSNR)
	}
}

func TestFirstPassStats(t *testing.T) {
	frames := video.NewSource(video.SourceConfig{
		Width: 64, Height: 64, Seed: 11, Detail: 0.5, SceneCut: 4}).Frames(8)
	stats := FirstPassAnalyze(frames)
	if len(stats) != 8 {
		t.Fatalf("stats for %d frames", len(stats))
	}
	if !stats[0].Keyframe {
		t.Error("first frame not marked keyframe")
	}
	if !stats[4].Keyframe {
		t.Error("scene cut at frame 4 not detected")
	}
	if stats[1].Keyframe || stats[2].Keyframe {
		t.Error("static frames misdetected as keyframes")
	}
	// Static continuation: inter cost well below intra cost.
	if stats[2].InterCost*4 > stats[2].IntraCost {
		t.Errorf("static frame inter cost %d not << intra %d", stats[2].InterCost, stats[2].IntraCost)
	}
}

func TestSkipModeDominatesStaticScenes(t *testing.T) {
	// A fully static scene at moderate QP: inter frames should be tiny
	// (skip everywhere).
	frames := video.NewSource(video.SourceConfig{Width: 128, Height: 128, Seed: 12, Detail: 0.4}).Frames(3)
	cfg := Config{Profile: VP9Class, Width: 128, Height: 128, RC: rc.Config{BaseQP: 32}}
	res := mustEncode(t, cfg, frames)
	for _, p := range res.Packets[1:] {
		if p.Bits() > 2000 {
			t.Errorf("static inter frame used %d bits", p.Bits())
		}
	}
}

func TestStreamingEncodeFlushInterleave(t *testing.T) {
	// The streaming API contract: packets arrive in decodable order no
	// matter how Encode/Flush calls interleave with lookahead groups.
	frames := video.NewSource(video.SourceConfig{
		Width: 64, Height: 64, Seed: 61, Detail: 0.5, Noise: 10}).Frames(7)
	enc, err := NewEncoder(Config{Profile: VP9Class, Width: 64, Height: 64,
		AltRef: true, ArfPeriod: 3, RC: rc.Config{BaseQP: 34}})
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	shown := 0
	feed := func(pkts []Packet) {
		for _, p := range pkts {
			f, err := dec.Decode(p.Data)
			if err != nil {
				t.Fatal(err)
			}
			if f != nil {
				shown++
			}
		}
	}
	for i, f := range frames {
		pkts, err := enc.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		feed(pkts)
		if i == 4 { // mid-stream flush: drain the lookahead early
			pkts, err := enc.Flush()
			if err != nil {
				t.Fatal(err)
			}
			feed(pkts)
		}
	}
	pkts, err := enc.Flush()
	if err != nil {
		t.Fatal(err)
	}
	feed(pkts)
	if shown != len(frames) {
		t.Fatalf("decoded %d shown frames, want %d", shown, len(frames))
	}
	if enc.EncodedPixels < int64(len(frames))*64*64 {
		t.Fatalf("EncodedPixels %d too low", enc.EncodedPixels)
	}
}

func TestDoubleFlushIsIdempotent(t *testing.T) {
	enc, err := NewEncoder(Config{Profile: VP9Class, Width: 64, Height: 64,
		AltRef: true, RC: rc.Config{BaseQP: 32}})
	if err != nil {
		t.Fatal(err)
	}
	if pkts, err := enc.Flush(); err != nil || len(pkts) != 0 {
		t.Fatalf("flush of empty encoder: %v, %d packets", err, len(pkts))
	}
	f := video.NewFrame(64, 64)
	if _, err := enc.Encode(f); err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if pkts, err := enc.Flush(); err != nil || len(pkts) != 0 {
		t.Fatalf("second flush: %v, %d packets", err, len(pkts))
	}
}

func TestSceneCutInsertsKeyframe(t *testing.T) {
	// A hard cut mid-GOP: two-pass encoding must key the cut frame
	// (predicting across a scene change wastes bits and quality).
	frames := video.NewSource(video.SourceConfig{
		Width: 96, Height: 64, Seed: 71, Detail: 0.6, Motion: 1, SceneCut: 5}).Frames(10)
	res := mustEncode(t, Config{Profile: VP9Class, Width: 96, Height: 64,
		GOPLength: 32, RC: rc.Config{Mode: rc.ModeTwoPassOffline, TargetBitrate: 400_000}}, frames)
	keyAt := map[int]bool{}
	for _, p := range res.Packets {
		if p.Keyframe {
			keyAt[p.DisplayIdx] = true
		}
	}
	if !keyAt[0] {
		t.Fatal("no keyframe at start")
	}
	if !keyAt[5] {
		t.Fatalf("no keyframe at the scene cut; keyframes at %v", keyAt)
	}
	// The stream must still decode in order.
	dec := mustDecode(t, res.Packets)
	if len(dec) != len(frames) {
		t.Fatalf("decoded %d frames", len(dec))
	}
}

func TestNoSpuriousKeyframesOnSmoothContent(t *testing.T) {
	frames := testSource(96, 64, 72, 8)
	res := mustEncode(t, Config{Profile: VP9Class, Width: 96, Height: 64,
		GOPLength: 32, RC: rc.Config{Mode: rc.ModeTwoPassOffline, TargetBitrate: 400_000}}, frames)
	keys := 0
	for _, p := range res.Packets {
		if p.Keyframe {
			keys++
		}
	}
	if keys != 1 {
		t.Fatalf("%d keyframes on smooth 8-frame content, want 1", keys)
	}
}

// TestEncodeAllocsPerFrame holds the encoder's steady state the way
// TestDecodeAllocsPerFrame holds the decoder's: once an inline encoder
// has grown its scratch over a few frames, an inter frame costs a
// handful of allocations and none per block or per transform block.
func TestEncodeAllocsPerFrame(t *testing.T) {
	frames := testSource(128, 64, 4, 16)
	for _, p := range []Profile{H264Class, VP9Class, AV1Class} {
		enc, err := NewEncoder(Config{Profile: p, Width: 128, Height: 64, Speed: 1, Workers: 1,
			RC: rc.Config{BaseQP: 32}})
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		encode := func() {
			if _, err := enc.Encode(frames[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for range 4 {
			encode()
		}
		perFrame := testing.AllocsPerRun(8, encode)
		if perFrame > 16 {
			t.Errorf("%v: %.1f allocations per encoded frame, want at most 16", p, perFrame)
		}
	}
}
