package filter

import (
	"bytes"
	"math/rand"
	"testing"

	"openvcu/internal/video"
)

// stripeWorkers are the worker counts the *Parallel filters are held to
// their references at: 0 runs every stripe on its own goroutine, the
// adversarial schedule (if stripes overlapped, -race would catch it and
// the byte-compare would flake); 1 is the inline path an encoder with
// Workers 1, or a decoder on one core, takes.
var stripeWorkers = []int{0, 1}

// deblockRef is the deblock reference: DeblockPlaneScalar on each plane,
// chroma on half the luma grid (at least 4).
func deblockRef(f *video.Frame, blockSize, strength int) {
	DeblockPlaneScalar(f.Y, f.Width, f.Height, blockSize, strength)
	cw, ch := video.ChromaDims(f.Width, f.Height)
	cb := max(blockSize/2, 4)
	DeblockPlaneScalar(f.U, cw, ch, cb, strength)
	DeblockPlaneScalar(f.V, cw, ch, cb, strength)
}

// restoreRef is the plain restoration loop RestoreParallel is held to:
// each plane box-smoothed whole, then blended with it.
func restoreRef(f *video.Frame, weightIdx int) {
	w := RestorationWeights[weightIdx&3]
	cw, ch := video.ChromaDims(f.Width, f.Height)
	for _, p := range []planeJob{{f.Y, f.Width, f.Height, 0}, {f.U, cw, ch, 0}, {f.V, cw, ch, 0}} {
		smooth := boxSmoothRef(p.pix, p.w, p.h)
		for i := range p.pix {
			p.pix[i] = uint8((int32(p.pix[i])*(8-w) + int32(smooth[i])*w + 4) >> 3)
		}
	}
}

// boxSmoothRef returns the 3x3 box filter of a whole plane (edge-clamped).
func boxSmoothRef(pix []uint8, w, h int) []uint8 {
	out := make([]uint8, len(pix))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var sum int32
			for sy := y - 1; sy <= y+1; sy++ {
				for sx := x - 1; sx <= x+1; sx++ {
					sum += int32(pix[min(max(sy, 0), h-1)*w+min(max(sx, 0), w-1)])
				}
			}
			out[y*w+x] = uint8((sum + 4) / 9)
		}
	}
	return out
}

// bestRestorationWeightRef is the plain weight search
// BestRestorationWeightParallel is held to: the weight index minimizing
// luma SSE against the source, scanned over the whole plane per weight.
func bestRestorationWeightRef(recon, src *video.Frame) int {
	smooth := boxSmoothRef(recon.Y, recon.Width, recon.Height)
	best, bestSSE := 0, int64(-1)
	for idx, w := range RestorationWeights {
		var sse int64
		for i := range recon.Y {
			v := (int32(recon.Y[i])*(8-w) + int32(smooth[i])*w + 4) >> 3
			d := int64(v) - int64(src.Y[i])
			sse += d * d
		}
		if bestSSE < 0 || sse < bestSSE {
			best, bestSSE = idx, sse
		}
	}
	return best
}

func samePlanes(a, b *video.Frame) bool {
	return bytes.Equal(a.Y, b.Y) && bytes.Equal(a.U, b.U) && bytes.Equal(a.V, b.V)
}

func randFrame(rng *rand.Rand, w, h int) *video.Frame {
	f := video.NewFrame(w, h)
	for i := range f.Y {
		f.Y[i] = uint8(rng.Intn(256))
	}
	for i := range f.U {
		f.U[i] = uint8(rng.Intn(256))
		f.V[i] = uint8(rng.Intn(256))
	}
	return f
}

// blockyFrame makes a frame with visible block-grid steps so the
// deblock filter actually fires on many edges.
func blockyFrame(rng *rand.Rand, w, h, bs int) *video.Frame {
	f := video.NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			base := uint8(((x/bs)*7 + (y/bs)*11) % 200)
			f.Y[y*w+x] = base + uint8(rng.Intn(3))
		}
	}
	cw, ch := video.ChromaDims(w, h)
	for y := 0; y < ch; y++ {
		for x := 0; x < cw; x++ {
			f.U[y*cw+x] = uint8(((x / 4) * 13) % 250)
			f.V[y*cw+x] = uint8(((y / 4) * 17) % 250)
		}
	}
	return f
}

func TestSwarMaskPrimitivesExhaustive(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			va := uint64(a) * fswarOne
			vb := uint64(b) * fswarOne
			wantAbs := a - b
			if wantAbs < 0 {
				wantAbs = -wantAbs
			}
			if got := fAbsDiffU64(va, vb); byte(got) != byte(wantAbs) || got != uint64(byte(wantAbs))*fswarOne {
				t.Fatalf("fAbsDiffU64(%d,%d) = %#x, want bytes %d", a, b, got, wantAbs)
			}
			wantGE := uint64(0)
			if a >= b {
				wantGE = fswarMSB
			}
			if got := geMaskU64(va, vb); got != wantGE {
				t.Fatalf("geMaskU64(%d,%d) = %#x, want %#x", a, b, got, wantGE)
			}
		}
		wantNZ := uint64(0)
		if a != 0 {
			wantNZ = fswarMSB
		}
		if got := nzMaskU64(uint64(a) * fswarOne); got != wantNZ {
			t.Fatalf("nzMaskU64(%d) = %#x, want %#x", a, got, wantNZ)
		}
	}
}

// TestDeblockPlaneMatchesScalar is the SWAR/striped differential gate:
// random and blocky frames, widths off the 8-byte grid, heights across
// stripe boundaries of luma and chroma, strengths including one past the
// packed-threshold clamp; every plane against DeblockPlaneScalar.
func TestDeblockPlaneMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		w := 16 + rng.Intn(90) // frequently not a multiple of 8
		h := 16 + rng.Intn(180)
		bs := []int{4, 8, 16}[rng.Intn(3)]
		strength := []int{1, 3, 8, 20, 300}[rng.Intn(5)]
		src := randFrame(rng, w, h)
		if trial%2 == 1 {
			src = blockyFrame(rng, w, h, bs)
		}
		want := src.Clone()
		deblockRef(want, bs, strength)
		for _, workers := range stripeWorkers {
			got := src.Clone()
			DeblockParallel(got, bs, strength, workers)
			if !samePlanes(got, want) {
				t.Fatalf("trial %d (w=%d h=%d bs=%d s=%d) workers=%d: SWAR deblock diverged from scalar",
					trial, w, h, bs, strength, workers)
			}
		}
	}
}

func TestDeblockParallelMatchesSequential(t *testing.T) {
	for _, workers := range stripeWorkers {
		rng := rand.New(rand.NewSource(12))
		for _, dims := range [][2]int{{64, 64}, {176, 144}, {200, 130}} {
			seq := blockyFrame(rng, dims[0], dims[1], 8)
			par := seq.Clone()
			deblockRef(seq, 8, 6)
			DeblockParallel(par, 8, 6, workers)
			if !samePlanes(seq, par) {
				t.Fatalf("workers=%d %dx%d: parallel deblock diverged from sequential", workers, dims[0], dims[1])
			}
		}
	}
}

func TestRestoreParallelMatchesSequential(t *testing.T) {
	for _, workers := range stripeWorkers {
		rng := rand.New(rand.NewSource(13))
		for widx := 1; widx < 4; widx++ {
			seq := randFrame(rng, 120, 90)
			par := seq.Clone()
			restoreRef(seq, widx)
			RestoreParallel(par, widx, workers)
			if !samePlanes(seq, par) {
				t.Fatalf("workers=%d weight %d: parallel restore diverged from sequential", workers, widx)
			}
		}
	}
}

func TestBestRestorationWeightParallelMatchesSequential(t *testing.T) {
	for _, workers := range stripeWorkers {
		rng := rand.New(rand.NewSource(14))
		for trial := 0; trial < 10; trial++ {
			recon := randFrame(rng, 130, 100)
			src := recon.Clone()
			// noisy recon vs smooth src biases the search off weight 0
			for i := range src.Y {
				src.Y[i] = uint8((int(src.Y[i]) + 128) / 2)
			}
			want := bestRestorationWeightRef(recon, src)
			got := BestRestorationWeightParallel(recon, src, workers)
			if got != want {
				t.Fatalf("workers=%d trial %d: parallel weight %d != sequential %d", workers, trial, got, want)
			}
		}
	}
}
