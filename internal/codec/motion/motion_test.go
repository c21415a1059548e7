package motion

import (
	"testing"

	"openvcu/internal/video"
)

// makePlane builds a textured plane via the procedural noise source.
func makePlane(w, h int, seed uint64) []uint8 {
	s := video.NewSource(video.SourceConfig{Width: w, Height: h, Seed: seed, Detail: 0.7})
	return s.Frame(0).Y
}

// shift returns plane translated by (dx, dy) full pels with edge extension.
func shift(pix []uint8, w, h, dx, dy int) []uint8 {
	out := make([]uint8, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sx, sy := x+dx, y+dy
			if sx < 0 {
				sx = 0
			}
			if sx >= w {
				sx = w - 1
			}
			if sy < 0 {
				sy = 0
			}
			if sy >= h {
				sy = h - 1
			}
			out[y*w+x] = pix[sy*w+sx]
		}
	}
	return out
}

func TestSearchFindsExactTranslation(t *testing.T) {
	w, h := 128, 96
	refPix := makePlane(w, h, 1)
	// current frame = reference shifted by (-5, +3): the best MV pointing
	// from cur back into ref is (+5*8, -3*8)... current(x,y)=ref(x+5,y-3)
	curPix := shift(refPix, w, h, 5, -3)
	ref := Ref{Pix: refPix, W: w, H: h}
	p := SearchParams{RangeX: 16, RangeY: 16, SubPelDepth: 0, Exhaustive: true}
	bx, by := 48, 40
	res := Search(curPix[by*w+bx:], w, ref, bx, by, Zero, 16, p, NewScratch())
	if res.MV.X != 5*8 || res.MV.Y != -3*8 {
		t.Fatalf("found MV (%d,%d)/8, want (40,-24)/8; sad=%d", res.MV.X, res.MV.Y, res.SAD)
	}
	if res.SAD != 0 {
		t.Fatalf("exact match should have zero SAD, got %d", res.SAD)
	}
}

func TestDiamondMatchesExhaustiveOnSmoothContent(t *testing.T) {
	w, h := 128, 96
	refPix := makePlane(w, h, 2)
	curPix := shift(refPix, w, h, 7, 2)
	ref := Ref{Pix: refPix, W: w, H: h}
	bx, by := 32, 32
	ex := Search(curPix[by*w+bx:], w, ref, bx, by, Zero, 16,
		SearchParams{RangeX: 12, RangeY: 12, Exhaustive: true}, NewScratch())
	di := Search(curPix[by*w+bx:], w, ref, bx, by, Zero, 16,
		SearchParams{RangeX: 12, RangeY: 12, Exhaustive: false}, NewScratch())
	if ex.SAD != 0 {
		t.Fatalf("exhaustive should find exact match, sad=%d", ex.SAD)
	}
	if di.SAD > ex.SAD*2+200 {
		t.Errorf("diamond SAD %d far worse than exhaustive %d", di.SAD, ex.SAD)
	}
}

func TestSubPelRefinementImproves(t *testing.T) {
	// Build a half-pel shifted current by averaging adjacent columns.
	w, h := 96, 64
	refPix := makePlane(w, h, 3)
	curPix := make([]uint8, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			x1 := x + 1
			if x1 >= w {
				x1 = w - 1
			}
			curPix[y*w+x] = uint8((int(refPix[y*w+x]) + int(refPix[y*w+x1]) + 1) / 2)
		}
	}
	ref := Ref{Pix: refPix, W: w, H: h}
	bx, by := 32, 24
	full := Search(curPix[by*w+bx:], w, ref, bx, by, Zero, 16,
		SearchParams{RangeX: 8, RangeY: 8, SubPelDepth: 0, Exhaustive: true}, NewScratch())
	half := Search(curPix[by*w+bx:], w, ref, bx, by, Zero, 16,
		SearchParams{RangeX: 8, RangeY: 8, SubPelDepth: 1, Exhaustive: true}, NewScratch())
	if half.SAD >= full.SAD {
		t.Fatalf("half-pel refinement did not improve: full=%d half=%d", full.SAD, half.SAD)
	}
	if half.MV.X != 4 { // 0.5 pel = 4/8
		t.Errorf("expected half-pel MV x=4/8, got %d/8", half.MV.X)
	}
}

func TestSampleBlockFullPelIdentity(t *testing.T) {
	w, h := 32, 32
	pix := makePlane(w, h, 4)
	ref := Ref{Pix: pix, W: w, H: h}
	dst := make([]uint8, 64)
	SampleBlock(ref, 8, 8, Zero, dst, 8, NewScratch())
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if dst[y*8+x] != pix[(8+y)*w+8+x] {
				t.Fatalf("identity sample mismatch at (%d,%d)", x, y)
			}
		}
	}
}

func TestSampleBlockNegativeFraction(t *testing.T) {
	// mv = -1/8 pel should interpolate between x-1 and x, weighted 1:7.
	w, h := 16, 16
	pix := make([]uint8, w*h)
	for i := range pix {
		pix[i] = uint8((i % w) * 10)
	}
	ref := Ref{Pix: pix, W: w, H: h}
	dst := make([]uint8, 64)
	SampleBlock(ref, 4, 4, MV{X: -1}, dst, 8, NewScratch())
	// position 4 - 1/8: between col 3 (30) and col 4 (40): 40*7/8+30/8 = 38.75 -> 39
	if dst[0] != 39 {
		t.Fatalf("negative fraction sample = %d, want 39", dst[0])
	}
}

func TestSampleCompoundAverages(t *testing.T) {
	w, h := 16, 16
	a := make([]uint8, w*h)
	b := make([]uint8, w*h)
	for i := range a {
		a[i] = 100
		b[i] = 200
	}
	dst := make([]uint8, 64)
	SampleCompound(Ref{Pix: a, W: w, H: h}, Zero, Ref{Pix: b, W: w, H: h}, Zero, 4, 4, dst, 8, NewScratch())
	for _, v := range dst {
		if v != 150 {
			t.Fatalf("compound = %d, want 150", v)
		}
	}
}

func TestMVCostPenaltyPrefersPredicted(t *testing.T) {
	// On a flat plane every MV has SAD 0; the cost term must make the
	// search return the predicted vector rather than a random zero-SAD one.
	w, h := 64, 64
	pix := make([]uint8, w*h)
	for i := range pix {
		pix[i] = 128
	}
	ref := Ref{Pix: pix, W: w, H: h}
	pred := MV{X: 16, Y: 8} // 2,1 full pel
	res := Search(pix[32*w+32:], w, ref, 32, 32, pred, 8,
		SearchParams{RangeX: 4, RangeY: 4, Exhaustive: true, LambdaMVCost: 5}, NewScratch())
	if res.MV != pred {
		t.Fatalf("search returned (%d,%d), want predicted (16,8)", res.MV.X, res.MV.Y)
	}
}

func TestPredictMVMedian(t *testing.T) {
	got := PredictMV(MV{10, 0}, MV{20, 5}, MV{30, -5}, true, true, true)
	if got.X != 20 || got.Y != 0 {
		t.Fatalf("median MV = (%d,%d), want (20,0)", got.X, got.Y)
	}
	if got := PredictMV(MV{8, 8}, Zero, Zero, true, false, false); got != (MV{8, 8}) {
		t.Fatalf("single-candidate predict = %v", got)
	}
	if got := PredictMV(Zero, Zero, Zero, false, false, false); got != Zero {
		t.Fatalf("no-candidate predict = %v", got)
	}
}

func TestSearchStaysInWindow(t *testing.T) {
	w, h := 256, 256
	refPix := makePlane(w, h, 9)
	curPix := shift(refPix, w, h, 40, 0) // true motion beyond the window
	ref := Ref{Pix: refPix, W: w, H: h}
	p := SearchParams{RangeX: 8, RangeY: 8, Exhaustive: true}
	res := Search(curPix[128*w+128:], w, ref, 128, 128, Zero, 16, p, NewScratch())
	if res.MV.X > 8*8 || res.MV.X < -8*8 || res.MV.Y > 8*8 || res.MV.Y < -8*8 {
		t.Fatalf("MV (%d,%d) escaped the search window", res.MV.X, res.MV.Y)
	}
}

// BenchmarkFlatSearch16 times the diamond refinement seeded from the
// spatial predictors only (formerly misnamed BenchmarkDiamondSearch16;
// both search modes run the same diamond, they differ in seeding —
// BenchmarkPyramidSearch16 in kernels_test.go is the pyramid half).
func BenchmarkFlatSearch16(b *testing.B) {
	w, h := 640, 360
	refPix := makePlane(w, h, 11)
	curPix := shift(refPix, w, h, 3, 2)
	ref := Ref{Pix: refPix, W: w, H: h}
	p := SearchParams{RangeX: 16, RangeY: 16, SubPelDepth: 2, LambdaMVCost: 2}
	b.ReportAllocs()
	sc := NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Search(curPix[100*w+100:], w, ref, 100, 100, Zero, 16, p, sc)
	}
}

func BenchmarkExhaustiveSearch16(b *testing.B) {
	w, h := 640, 360
	refPix := makePlane(w, h, 11)
	curPix := shift(refPix, w, h, 3, 2)
	ref := Ref{Pix: refPix, W: w, H: h}
	p := SearchParams{RangeX: 16, RangeY: 16, Exhaustive: true}
	b.ReportAllocs()
	sc := NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Search(curPix[100*w+100:], w, ref, 100, 100, Zero, 16, p, sc)
	}
}

func TestSATDZeroForIdenticalBlocks(t *testing.T) {
	pix := makePlane(16, 16, 3)
	if got := BlockSATD(pix, 16, pix[:256], 16); got != 0 {
		t.Fatalf("SATD of identical blocks = %d", got)
	}
}

func TestSATD4x4DCOnly(t *testing.T) {
	// A constant residual concentrates in the DC Hadamard coefficient:
	// SATD = 16*c*4/4 = 4*c... exactly |sum| after gain normalization.
	resid := make([]int32, 16)
	for i := range resid {
		resid[i] = 5
	}
	if got := SATD4x4(resid); got != 20 { // 16*5/4
		t.Fatalf("constant-residual SATD = %d, want 20", got)
	}
}

func TestSATDPenalizesHighFrequency(t *testing.T) {
	// Same SAD, different structure: a checkerboard residual (pure high
	// frequency) must cost at least as much as a flat one under SATD.
	flat := make([]int32, 16)
	checker := make([]int32, 16)
	for i := range flat {
		flat[i] = 4
		if (i+i/4)%2 == 0 {
			checker[i] = 4
		} else {
			checker[i] = -4
		}
	}
	if SATD4x4(checker) < SATD4x4(flat) {
		t.Fatal("checkerboard residual should not be cheaper than flat under SATD")
	}
}

func TestRefineSubPelSATDImproves(t *testing.T) {
	// Half-pel-shifted content: SATD refinement should find a fractional
	// vector with cost at or below the full-pel start.
	w, h := 96, 64
	refPix := makePlane(w, h, 13)
	curPix := make([]uint8, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			x1 := x + 1
			if x1 >= w {
				x1 = w - 1
			}
			curPix[y*w+x] = uint8((int(refPix[y*w+x]) + int(refPix[y*w+x1]) + 1) / 2)
		}
	}
	ref := Ref{Pix: refPix, W: w, H: h}
	bx, by := 32, 24
	full := Search(curPix[by*w+bx:], w, ref, bx, by, Zero, 16,
		SearchParams{RangeX: 8, RangeY: 8, SubPelDepth: 0, Exhaustive: true}, NewScratch())
	refined := RefineSubPelSATD(curPix[by*w+bx:], w, ref, bx, by, full, 16,
		SearchParams{SubPelDepth: 2}, NewScratch())
	startCost := BlockSATD(curPix[by*w+bx:], w, sample(ref, bx, by, full.MV, 16), 16)
	if refined.SAD > startCost {
		t.Fatalf("SATD refinement went backwards: %d -> %d", startCost, refined.SAD)
	}
	if refined.MV == full.MV && refined.SAD == startCost {
		t.Log("no sub-pel improvement found (acceptable but unexpected on half-pel content)")
	}
}

func sample(ref Ref, bx, by int, mv MV, n int) []uint8 {
	dst := make([]uint8, n*n)
	SampleBlock(ref, bx, by, mv, dst, n, NewScratch())
	return dst
}
