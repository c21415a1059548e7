package transcode

import (
	"testing"

	"openvcu/internal/codec"
	"openvcu/internal/codec/rc"
	"openvcu/internal/video"
)

func srcFrames(n int) []*video.Frame {
	return video.NewSource(video.SourceConfig{
		Width: 128, Height: 72, Seed: 3, Detail: 0.5, Motion: 1, Objects: 1, ObjectMotion: 2,
	}).Frames(n)
}

func smallSpecs() []OutputSpec {
	return []OutputSpec{
		{Name: "72p", Resolution: video.Resolution{Name: "72p", Width: 128, Height: 72},
			Profile: codec.VP9Class, RC: rc.Config{BaseQP: 34}, Speed: 2},
		{Name: "36p", Resolution: video.Resolution{Name: "36p", Width: 64, Height: 36},
			Profile: codec.VP9Class, RC: rc.Config{BaseQP: 34}, Speed: 2},
	}
}

func TestMOTProducesAllOutputs(t *testing.T) {
	frames := srcFrames(4)
	res, err := MOT(frames, 30, smallSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 2 {
		t.Fatalf("%d outputs", len(res.Outputs))
	}
	for _, out := range res.Outputs {
		dec, err := codec.DecodeSequence(out.Packets)
		if err != nil {
			t.Fatalf("output %s: %v", out.Spec.Name, err)
		}
		if len(dec) != len(frames) {
			t.Fatalf("output %s decoded %d frames", out.Spec.Name, len(dec))
		}
		if dec[0].Width != out.Spec.Resolution.Width {
			t.Fatalf("output %s width %d", out.Spec.Name, dec[0].Width)
		}
	}
	if res.DecodedPixels != int64(len(frames))*128*72 {
		t.Errorf("decoded pixels %d", res.DecodedPixels)
	}
}

// TestMOTWorkersByteIdentical: the OutputSpec Workers knob reaches the
// encoder pool (MOT joins the pools on return) and never changes the
// emitted bitstream.
func TestMOTWorkersByteIdentical(t *testing.T) {
	frames := srcFrames(4)
	specsAt := func(w int) []OutputSpec {
		specs := smallSpecs()
		for i := range specs {
			specs[i].Workers = w
			specs[i].TileColumns = 2
		}
		return specs
	}
	serial, err := MOT(frames, 30, specsAt(1))
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := MOT(frames, 30, specsAt(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Outputs {
		a, b := serial.Outputs[i], pooled.Outputs[i]
		if a.TotalBits != b.TotalBits || len(a.Packets) != len(b.Packets) {
			t.Fatalf("output %s: %d/%d bits, %d/%d packets across Workers",
				a.Spec.Name, a.TotalBits, b.TotalBits, len(a.Packets), len(b.Packets))
		}
		for j := range a.Packets {
			if string(a.Packets[j].Data) != string(b.Packets[j].Data) {
				t.Fatalf("output %s packet %d differs across Workers", a.Spec.Name, j)
			}
		}
	}
}

// TestMOTTwoPassMatchesEncodeSequence: a two-pass rung through MOT is the
// stream EncodeSequence writes for the same frames and configuration, on
// a clip with a scene cut: both install the first pass, cuts included,
// through Encoder.SetFirstPass.
func TestMOTTwoPassMatchesEncodeSequence(t *testing.T) {
	frames := video.NewSource(video.SourceConfig{
		Width: 96, Height: 64, Seed: 71, Detail: 0.6, Motion: 1, SceneCut: 5}).Frames(10)
	spec := OutputSpec{Name: "64p", Resolution: video.Resolution{Name: "64p", Width: 96, Height: 64},
		Profile: codec.VP9Class, RC: rc.Config{Mode: rc.ModeTwoPassOffline, TargetBitrate: 400_000}, Speed: 2}
	mot, err := MOT(frames, 30, []OutputSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := codec.EncodeSequence(encoderConfig(spec, 30), frames)
	if err != nil {
		t.Fatal(err)
	}
	got, want := mot.Outputs[0].Packets, seq.Packets
	if len(got) != len(want) {
		t.Fatalf("MOT wrote %d packets, EncodeSequence %d", len(got), len(want))
	}
	cut := false
	for i := range want {
		if string(got[i].Data) != string(want[i].Data) || got[i].DisplayIdx != want[i].DisplayIdx {
			t.Fatalf("packet %d (display %d) differs from EncodeSequence's", i, want[i].DisplayIdx)
		}
		cut = cut || want[i].Keyframe && want[i].DisplayIdx == 5
	}
	if !cut {
		t.Fatal("no keyframe at the scene cut: the clip does not test the cuts")
	}
}

func TestMOTDecodesOnceSOTDecodesPerVariant(t *testing.T) {
	frames := srcFrames(3)
	specs := smallSpecs()
	mot, err := MOT(frames, 30, specs)
	if err != nil {
		t.Fatal(err)
	}
	var sotDecoded int64
	for _, spec := range specs {
		sot, err := SOT(frames, 30, spec)
		if err != nil {
			t.Fatal(err)
		}
		sotDecoded += sot.DecodedPixels
	}
	if sotDecoded != 2*mot.DecodedPixels {
		t.Errorf("SOT decode pixels %d, want 2x MOT's %d", sotDecoded, mot.DecodedPixels)
	}
}

func TestLadderSpecs(t *testing.T) {
	specs := LadderSpecs(video.Res480p, codec.VP9Class, 0.08, 30, true)
	if len(specs) != 4 { // 144p..480p
		t.Fatalf("%d specs: %+v", len(specs), specs)
	}
	if specs[len(specs)-1].Resolution != video.Res480p {
		t.Errorf("top rung %v", specs[len(specs)-1].Resolution)
	}
	for _, s := range specs {
		if !s.Hardware {
			t.Error("hardware flag not propagated")
		}
		if s.RC.TargetBitrate <= 0 {
			t.Error("no target bitrate")
		}
	}
	// Bitrates scale with pixel count.
	if specs[0].RC.TargetBitrate >= specs[len(specs)-1].RC.TargetBitrate {
		t.Error("bitrates not increasing with resolution")
	}
}

func TestSplitChunks(t *testing.T) {
	frames := srcFrames(10)
	chunks := SplitChunks(frames, 4)
	if len(chunks) != 3 {
		t.Fatalf("%d chunks", len(chunks))
	}
	if len(chunks[0].Frames) != 4 || len(chunks[2].Frames) != 2 {
		t.Fatalf("chunk sizes %d/%d", len(chunks[0].Frames), len(chunks[2].Frames))
	}
	if chunks[1].Index != 1 {
		t.Error("chunk index wrong")
	}
}

func TestChunkedAssemblesPlayableStreams(t *testing.T) {
	frames := srcFrames(8)
	chunks := SplitChunks(frames, 4)
	res, err := Chunked(chunks, 30, smallSpecs(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range res.Outputs {
		dec, err := codec.DecodeSequence(out.Packets)
		if err != nil {
			t.Fatalf("assembled stream %s does not decode: %v", out.Spec.Name, err)
		}
		if len(dec) != len(frames) {
			t.Fatalf("assembled %s has %d frames, want %d", out.Spec.Name, len(dec), len(frames))
		}
	}
}

func TestChunkedMatchesUnchunkedPixelAccounting(t *testing.T) {
	frames := srcFrames(8)
	chunks := SplitChunks(frames, 4)
	specs := smallSpecs()
	res, err := Chunked(chunks, 30, specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantPixels := int64(len(frames)) * (128*72 + 64*36)
	var got int64
	for _, out := range res.Outputs {
		got += out.OutputPixels
	}
	if got != wantPixels {
		t.Errorf("output pixels %d want %d", got, wantPixels)
	}
}

// TestChunkedReportsLowestFailingChunk: when every chunk fails, and
// fails after real work (the two-pass rung's first pass runs before the
// second rung's encoder is rejected), Chunked reports the lowest failing
// chunk's error as par.Do returns it, wrapped once with its index and
// nothing else, at any parallelism. The function handed to par.Do runs
// concurrently with itself; what it shares with other chunks beyond its
// own result slot is what this test, under -race, is for.
func TestChunkedReportsLowestFailingChunk(t *testing.T) {
	chunks := SplitChunks(srcFrames(8), 2)
	specs := smallSpecs()
	specs[0].RC = rc.Config{Mode: rc.ModeTwoPassOffline, TargetBitrate: 200_000}
	specs[1].TileColumns = 3
	_, motErr := MOT(chunks[0].Frames, 30, specs)
	if motErr == nil {
		t.Fatal("MOT accepted three tile columns")
	}
	want := "transcode: chunk 0: " + motErr.Error()
	for _, parallelism := range []int{1, 2} {
		res, err := Chunked(chunks, 30, specs, parallelism)
		if err == nil || err.Error() != want {
			t.Fatalf("parallelism %d: Chunked returned %v, %v; want error %q", parallelism, res, err, want)
		}
	}
}

func TestMOTRejectsEmpty(t *testing.T) {
	if _, err := MOT(nil, 30, smallSpecs()); err == nil {
		t.Fatal("empty input accepted")
	}
}
