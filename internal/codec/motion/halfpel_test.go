package motion

import (
	"math/rand"
	"testing"
)

// halfPhases are the phases HalfPlanes stores, in plane order.
var halfPhases = [3]MV{{4, 0}, {0, 4}, {4, 4}}

// TestHalfPlanesMatchScalar holds every pixel of every plane to the scalar
// reference at that phase, for both filters, on a random plane and on
// extremePlanes, down to dimensions smaller than the filter. One HalfPlanes is rebuilt across all sizes, so a buffer
// kept from a larger frame must not leak into a smaller one.
func TestHalfPlanesMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var hp HalfPlanes
	for _, sharp := range []bool{false, true} {
		for _, d := range [][2]int{{96, 72}, {1, 1}, {3, 5}, {17, 9}, {2, 2}, {4, 3}, {1, 7}, {64, 1}} {
			w, h := d[0], d[1]
			planes := extremePlanes(w, h)
			planes["random"] = randPlane(rng, w, h)
			for _, name := range []string{"random", "zero", "full", "check1x1", "check2x2"} {
				ref := Ref{Pix: planes[name], W: w, H: h, Sharp: sharp}
				hp.Build(ref)
				var want [1]uint8
				for i, ph := range halfPhases {
					if len(hp.planes[i]) != w*h {
						t.Fatalf("%dx%d plane %d has %d pixels", w, h, i, len(hp.planes[i]))
					}
					for y := 0; y < h; y++ {
						for x := 0; x < w; x++ {
							sampleBlockRef(ref, x, y, ph, want[:], 1)
							if got := hp.planes[i][y*w+x]; got != want[0] {
								t.Fatalf("%s sharp=%v %dx%d phase %v pixel (%d,%d) = %d, want %d",
									name, sharp, w, h, ph, x, y, got, want[0])
							}
						}
					}
				}
			}
		}
	}
}

// shiftedCopy returns ref's plane sampled at a constant displacement. The
// dimensions must be multiples of 16.
func shiftedCopy(ref Ref, mv MV) []uint8 {
	out := make([]uint8, ref.W*ref.H)
	var blk [16 * 16]uint8
	for by := 0; by < ref.H; by += 16 {
		for bx := 0; bx < ref.W; bx += 16 {
			sampleBlockRef(ref, bx, by, mv, blk[:], 16)
			for y := 0; y < 16; y++ {
				copy(out[(by+y)*ref.W+bx:], blk[y*16:y*16+16])
			}
		}
	}
	return out
}

// TestHalfPlanesChangeNothing runs Search, RefineSubPelSATD and
// SampleBlock on a reference with and without its half-sample planes —
// random blocks, predictors and vectors, some of which leave the frame —
// and requires identical results. The nil-planes reference is the
// interpolating path the decoder runs.
func TestHalfPlanesChangeNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const w, h = 112, 80
	for trial := 0; trial < 300; trial++ {
		plain := Ref{Pix: randPlane(rng, w, h), W: w, H: h, Sharp: trial%2 == 0}
		// The current frame is the reference displaced by a sub-pel vector,
		// so the refinement has a real minimum to walk to.
		cur := shiftedCopy(plain, MV{int16(rng.Intn(81) - 40), int16(rng.Intn(81) - 40)})
		withPlanes := plain
		withPlanes.Half = &HalfPlanes{}
		withPlanes.Half.Build(plain)

		n := []int{8, 16, 24, 32, 64}[rng.Intn(5)]
		bx, by := rng.Intn(w-n+1), rng.Intn(h-n+1)
		if trial%4 == 0 { // hug a border so sub-pel candidates straddle it
			bx, by = []int{0, w - n}[rng.Intn(2)], []int{0, h - n}[rng.Intn(2)]
		}
		pred := MV{int16(rng.Intn(129) - 64), int16(rng.Intn(129) - 64)}
		p := SearchParams{RangeX: 8, RangeY: 8, SubPelDepth: 1 + rng.Intn(3), LambdaMVCost: int64(rng.Intn(3))}
		block := cur[by*w+bx:]
		a := Search(block, w, plain, bx, by, pred, n, p, NewScratch())
		b := Search(block, w, withPlanes, bx, by, pred, n, p, NewScratch())
		if a != b {
			t.Fatalf("trial %d: Search n=%d at (%d,%d) = %+v with planes, %+v without", trial, n, bx, by, b, a)
		}
		a = RefineSubPelSATD(block, w, plain, bx, by, a, n, p, NewScratch())
		b = RefineSubPelSATD(block, w, withPlanes, bx, by, b, n, p, NewScratch())
		if a != b {
			t.Fatalf("trial %d: RefineSubPelSATD = %+v with planes, %+v without", trial, b, a)
		}

		got, want := make([]uint8, n*n), make([]uint8, n*n)
		for k := 0; k < 8; k++ {
			// Half-sample vectors mostly; far enough to leave the frame.
			mv := MV{int16(rng.Intn(2*w)-w) * 4, int16(rng.Intn(2*h)-h) * 4}
			if k == 7 {
				mv = MV{int16(rng.Intn(129) - 64), int16(rng.Intn(129) - 64)}
			}
			SampleBlock(withPlanes, bx, by, mv, got, n, NewScratch())
			sampleBlockRef(plain, bx, by, mv, want, n)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: SampleBlock n=%d at (%d,%d) mv=%v pixel %d = %d, want %d",
						trial, n, bx, by, mv, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSingleAxisKernelsMatchScalar drives the one-pass paths of both
// interpolators — all 8 phases on the free axis, the other at 0 — at the
// positions where the interior test flips, against the direct 2-D form.
func TestSingleAxisKernelsMatchScalar(t *testing.T) {
	if catmullTaps[0] != [4]int32{0, 64, 0, 0} {
		t.Fatalf("phase-0 taps %v: the one-pass paths assume a pure scale by 64", catmullTaps[0])
	}
	rng := rand.New(rand.NewSource(13))
	const w, h = 80, 72
	ref := Ref{Pix: randPlane(rng, w, h), W: w, H: h}
	sc := NewScratch()
	for _, n := range []int{8, 16, 64} {
		got, want := make([]uint8, n*n), make([]uint8, n*n)
		check := func(kernel string, ix, iy, fx, fy int) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s n=%d at (%d,%d) phase (%d,%d): pixel %d = %d, want %d",
						kernel, n, ix, iy, fx, fy, i, got[i], want[i])
				}
			}
		}
		for _, ix := range []int{-1, 0, 1, 2, w - n - 3, w - n - 2, w - n - 1, w - n} {
			for _, iy := range []int{-1, 0, 1, 2, h - n - 3, h - n - 2, h - n - 1, h - n} {
				for f := 0; f < 8; f++ {
					for _, ph := range [][2]int{{f, 0}, {0, f}} {
						fx, fy := ph[0], ph[1]
						one := planes{pix: [2][]uint8{ref.Pix}, dst: [2][]uint8{got}, k: 1}
						sampleSharp(&ref, one, ix, iy, fx, fy, n, n, sc)
						sampleSharpRef(ref, ix, iy, fx, fy, want, n)
						check("sampleSharp", ix, iy, fx, fy)
						sampleBilinear(&ref, one, ix, iy, fx, fy, n, n, sc)
						sampleBilinearRef(ref, ix, iy, fx, fy, want, n)
						check("sampleBilinear", ix, iy, fx, fy)
					}
				}
			}
		}
	}
}

// BenchmarkBuildHalfPlanes360p times the once-per-reference plane build
// the encoder pays at the head of an inter frame.
func BenchmarkBuildHalfPlanes360p(b *testing.B) {
	const w, h = 640, 384
	ref := Ref{Pix: randPlane(rand.New(rand.NewSource(14)), w, h), W: w, H: h, Sharp: true}
	var hp HalfPlanes
	hp.Build(ref)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hp.Build(ref)
	}
}
