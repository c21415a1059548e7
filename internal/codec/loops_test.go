package codec

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// padPlaneRef and buildResidualRef are the per-pixel loops padPlane and
// buildResidual replaced (a clamped index per pixel; a bounds check per
// sample), kept as the references the tests below hold them to.
func padPlaneRef(src []uint8, sw, sh int, dst []uint8, dw, dh int) {
	for y := 0; y < dh; y++ {
		sy := y
		if sy >= sh {
			sy = sh - 1
		}
		for x := 0; x < dw; x++ {
			sx := x
			if sx >= sw {
				sx = sw - 1
			}
			dst[y*dw+x] = src[sy*sw+sx]
		}
	}
}

func buildResidualRef(src []uint8, stride, sx, sy int,
	pred []uint8, predStride, px, py int, out []int32, n int) {
	for r := 0; r < n; r++ {
		srow := src[(sy+r)*stride+sx:]
		prow := pred[(py+r)*predStride+px:]
		for c := 0; c < n; c++ {
			out[r*n+c] = int32(srow[c]) - int32(prow[c])
		}
	}
}

// TestPadPlaneMatchesReference pads random planes to larger, equal and
// (in one axis) smaller shapes, as padFrame's callers and its chroma
// planes do.
func TestPadPlaneMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 300; trial++ {
		sw, sh := 1+rng.Intn(70), 1+rng.Intn(50)
		dw, dh := max(1, sw+rng.Intn(40)-8), max(1, sh+rng.Intn(40)-8)
		src := make([]uint8, sw*sh)
		rng.Read(src)
		got, want := make([]uint8, dw*dh), make([]uint8, dw*dh)
		padPlane(src, sw, sh, got, dw, dh)
		padPlaneRef(src, sw, sh, want, dw, dh)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d×%d → %d×%d: padPlane differs from the reference", sw, sh, dw, dh)
		}
	}
}

// TestBuildResidualMatchesReference takes every transform size at random
// offsets into random source and prediction planes, extremes included.
func TestBuildResidualMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	const w, h = 96, 80
	src, pred := make([]uint8, w*h), make([]uint8, w*h)
	for trial := 0; trial < 400; trial++ {
		rng.Read(src)
		rng.Read(pred)
		if trial%4 == 0 {
			for i := range src {
				src[i], pred[i] = 255*uint8(i%2), 255*uint8(1-i%2)
			}
		}
		n := []int{4, 8, 16, 32}[trial%4]
		sx, sy := rng.Intn(w-n+1), rng.Intn(h-n+1)
		px, py := rng.Intn(w-n+1), rng.Intn(h-n+1)
		got, want := make([]int32, n*n), make([]int32, n*n)
		(&encFrame{}).buildResidual(src, w, sx, sy, pred, w, px, py, got, n)
		buildResidualRef(src, w, sx, sy, pred, w, px, py, want, n)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d at (%d,%d) against (%d,%d): buildResidual differs from the reference", n, sx, sy, px, py)
		}
	}
}
