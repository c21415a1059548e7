package filter

import (
	"testing"

	"openvcu/internal/video"
)

func TestDeblockSmoothsBlockEdge(t *testing.T) {
	// Two flat half-planes split on a block boundary with a small step:
	// the filter should shrink the step.
	w, h := 32, 32
	f := video.NewFrame(w, h)
	pix := f.Y
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x < 16 {
				pix[y*w+x] = 100
			} else {
				pix[y*w+x] = 106
			}
		}
	}
	DeblockParallel(f, 16, 8, 1)
	stepBefore := 6
	stepAfter := int(pix[16]) - int(pix[15])
	if stepAfter >= stepBefore {
		t.Fatalf("edge step not reduced: before %d after %d", stepBefore, stepAfter)
	}
}

func TestDeblockPreservesRealEdges(t *testing.T) {
	// A large step (a real image edge) must pass through unchanged.
	w, h := 32, 32
	f := video.NewFrame(w, h)
	pix := f.Y
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x < 16 {
				pix[y*w+x] = 50
			} else {
				pix[y*w+x] = 200
			}
		}
	}
	orig := append([]uint8(nil), pix...)
	DeblockParallel(f, 16, 8, 1)
	for i := range pix {
		if pix[i] != orig[i] {
			t.Fatalf("real edge modified at %d: %d -> %d", i, orig[i], pix[i])
		}
	}
}

func TestDeblockZeroStrengthIsNoop(t *testing.T) {
	f := video.NewSource(video.SourceConfig{Width: 64, Height: 64, Seed: 1, Detail: 0.8}).Frame(0)
	orig := f.Clone()
	DeblockParallel(f, 16, 0, 1)
	if video.MSE(f.Y, orig.Y) != 0 {
		t.Fatal("strength-0 deblock modified pixels")
	}
}

func TestTemporalFilterReducesNoise(t *testing.T) {
	// Clean static scene + temporal noise: the filtered center frame must
	// be closer to the clean scene than the noisy center frame is.
	clean := video.NewSource(video.SourceConfig{Width: 64, Height: 64, Seed: 7, Detail: 0.4})
	noisy := video.NewSource(video.SourceConfig{Width: 64, Height: 64, Seed: 7, Detail: 0.4, Noise: 8})
	frames := noisy.Frames(3)
	filtered := TemporalFilter(frames, 1)
	ref := clean.Frame(1)
	noisyMSE := video.MSE(frames[1].Y, ref.Y)
	filteredMSE := video.MSE(filtered.Y, ref.Y)
	if filteredMSE >= noisyMSE {
		t.Fatalf("temporal filter did not denoise: noisy %.2f filtered %.2f", noisyMSE, filteredMSE)
	}
}

func TestTemporalFilterTracksMotion(t *testing.T) {
	// With panning content the filter must motion-align, not just average:
	// output should stay close to the center frame, not become a blur.
	src := video.NewSource(video.SourceConfig{Width: 96, Height: 64, Seed: 3, Detail: 0.6, Motion: 3})
	frames := src.Frames(3)
	filtered := TemporalFilter(frames, 1)
	mse := video.MSE(filtered.Y, frames[1].Y)
	if mse > 30 {
		t.Fatalf("motion-compensated filter drifted from center frame: MSE %.2f", mse)
	}
}

func TestRestoreWeightZeroIsIdentity(t *testing.T) {
	f := video.NewSource(video.SourceConfig{Width: 48, Height: 48, Seed: 9, Detail: 0.8}).Frame(0)
	orig := f.Clone()
	RestoreParallel(f, 0, 1)
	if video.MSE(f.Y, orig.Y) != 0 {
		t.Fatal("weight-0 restoration modified pixels")
	}
}

func TestRestoreSmoothsTowardBox(t *testing.T) {
	// Higher weights pull pixels toward the local mean: variance of a
	// noisy plane must drop monotonically with weight.
	src := video.NewSource(video.SourceConfig{Width: 64, Height: 64, Seed: 10, Detail: 0.3, Noise: 20}).Frame(0)
	variance := func(f *video.Frame) float64 {
		var sum, sum2 float64
		for _, p := range f.Y {
			sum += float64(p)
			sum2 += float64(p) * float64(p)
		}
		n := float64(len(f.Y))
		m := sum / n
		return sum2/n - m*m
	}
	prev := variance(src)
	for w := 1; w < 4; w++ {
		f := src.Clone()
		RestoreParallel(f, w, 1)
		v := variance(f)
		if v >= prev {
			t.Fatalf("weight %d did not reduce variance: %.1f -> %.1f", w, prev, v)
		}
		prev = v
	}
}

func TestBestRestorationWeightPicksDenoiser(t *testing.T) {
	// recon = src + noise: blending toward the smoothed recon gets closer
	// to the clean source, so the best weight must be nonzero.
	clean := video.NewSource(video.SourceConfig{Width: 64, Height: 64, Seed: 11, Detail: 0.2}).Frame(0)
	noisy := video.NewSource(video.SourceConfig{Width: 64, Height: 64, Seed: 11, Detail: 0.2, Noise: 15}).Frame(0)
	if w := BestRestorationWeightParallel(noisy, clean, 1); w == 0 {
		t.Fatal("restoration search found no benefit on noisy recon")
	}
	// And on a perfect recon the best weight must be zero.
	if w := BestRestorationWeightParallel(clean.Clone(), clean, 1); w != 0 {
		t.Fatalf("perfect recon picked weight %d", w)
	}
}

func TestTemporalFilterIterativeApplication(t *testing.T) {
	// §3.2: "the temporal filter can be iteratively applied to filter
	// more than 3 frames" — a second pass must denoise further.
	clean := video.NewSource(video.SourceConfig{Width: 64, Height: 64, Seed: 12, Detail: 0.4})
	noisy := video.NewSource(video.SourceConfig{Width: 64, Height: 64, Seed: 12, Detail: 0.4, Noise: 12})
	frames := noisy.Frames(5)
	once := TemporalFilter(frames[1:4], 1)
	// Iterate: filter three single-pass outputs.
	stage := []*video.Frame{
		TemporalFilter(frames[0:3], 1),
		once,
		TemporalFilter(frames[2:5], 1),
	}
	twice := TemporalFilter(stage, 1)
	ref := clean.Frame(2)
	onceMSE := video.MSE(once.Y, ref.Y)
	twiceMSE := video.MSE(twice.Y, ref.Y)
	if twiceMSE >= onceMSE {
		t.Fatalf("iterative filtering did not denoise further: %.2f -> %.2f", onceMSE, twiceMSE)
	}
}
