package cluster

import (
	"testing"
	"time"

	"openvcu/internal/codec"
	"openvcu/internal/vcu"
	"openvcu/internal/video"
)

func realPixelsConfig() Config {
	cfg := DefaultConfig(1)
	cfg.RealPixels = true
	return cfg
}

func realVideo(id, chunks int) VideoSpec {
	return VideoSpec{
		ID: id, Resolution: video.Res1080p, FPS: 30,
		Frames: chunks * 150, ChunkFrames: 150,
		Profile: codec.VP9Class, Mode: vcu.EncodeTwoPassOffline, MOT: true,
	}
}

func TestRealPixelsHappyPath(t *testing.T) {
	c := New(realPixelsConfig())
	done := 0
	g := BuildGraph(realVideo(1, 3), 10)
	g.OnDone = func(*Graph) { done++ }
	c.Submit(g)
	c.Eng.RunUntil(20 * time.Minute)
	if done != 1 {
		t.Fatalf("video incomplete; stats %+v", c.Stats)
	}
	// Every chunk's real bitstream must decode to the configured length.
	for _, s := range g.Steps {
		if s.Kind != StepTranscode {
			continue
		}
		if len(s.Packets) == 0 {
			t.Fatal("transcode step has no real packets")
		}
		dec, err := codec.DecodeSequence(s.Packets)
		if err != nil {
			t.Fatalf("chunk does not decode: %v", err)
		}
		if len(dec) != realFrames {
			t.Fatalf("chunk decoded %d frames, want %d", len(dec), realFrames)
		}
	}
	if c.Stats.CorruptionsCaught != 0 || c.Stats.CorruptionsEscaped != 0 {
		t.Fatalf("healthy run reported corruption: %+v", c.Stats)
	}
}

// TestRealPixelsIntegrityChecksCatchRealCorruption is §4.4 with nothing
// simulated: a faulty VCU flips real bytes in real arithmetic-coded
// bitstreams, and the assemble step's real decode/length checks catch
// most of it ("detect and prevent most corruption") while the videos
// still complete via retries.
func TestRealPixelsIntegrityChecksCatchRealCorruption(t *testing.T) {
	cfg := realPixelsConfig()
	cfg.GoldenCheckOnStart = false // let the bad VCU keep serving
	cfg.AbortOnFailure = false
	cfg.DisableFaultThreshold = 1 << 30
	c := New(cfg)
	c.Hosts[0].VCUs[0].InjectFault(vcu.FaultCorrupt, 0)
	done := 0
	var graphs []*Graph
	const videos = 12
	for i := 0; i < videos; i++ {
		i := i
		c.Eng.Schedule(time.Duration(i)*20*time.Second, func() {
			g := BuildGraph(realVideo(i, 2), 10)
			g.OnDone = func(*Graph) { done++ }
			graphs = append(graphs, g)
			c.Submit(g)
		})
	}
	c.Eng.RunUntil(3 * time.Hour)
	if done != videos {
		t.Fatalf("completed %d/%d; stats %+v queue %d", done, videos, c.Stats, c.QueueLen())
	}
	if c.Stats.CorruptionsCaught == 0 {
		t.Fatal("real integrity checks never caught a byte flip")
	}
	// Everything that shipped must decode; escapes decode but are wrong.
	for _, g := range graphs {
		for _, s := range g.Steps {
			if s.Kind != StepTranscode || s.Software {
				continue
			}
			if _, err := codec.DecodeSequence(s.Packets); err != nil {
				t.Fatalf("shipped chunk does not decode: %v", err)
			}
		}
	}
	t.Logf("real corruption: caught=%d escaped=%d retries=%d",
		c.Stats.CorruptionsCaught, c.Stats.CorruptionsEscaped, c.Stats.Retries)
}

func TestRealPixelsEscapedCorruptionIsGarbageNotCrash(t *testing.T) {
	// An escaped corruption means the stream decodes with the right
	// structure but wrong pixels: verify the ground truth by comparing
	// against a clean re-encode.
	cfg := realPixelsConfig()
	c := New(cfg)
	g := BuildGraph(realVideo(5, 1), 10)
	c.Submit(g)
	c.Eng.RunUntil(10 * time.Minute)
	var tr *Step
	for _, s := range g.Steps {
		if s.Kind == StepTranscode {
			tr = s
		}
	}
	clean, err := codec.DecodeSequence(tr.Packets)
	if err != nil {
		t.Fatal(err)
	}
	src := c.chunkFrames(tr)
	if psnr := video.SequencePSNR(src, clean); psnr < 25 {
		t.Fatalf("clean chunk PSNR %.1f implausibly low", psnr)
	}
}
