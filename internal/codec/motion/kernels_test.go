package motion

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The SWAR and separable kernels must be bit-exact with the scalar
// references in reference.go (ISSUE 2). These differential tests sweep
// random block sizes, strides, edge-straddling positions and all 64
// fractional phases with a fixed seed, so a kernel regression fails
// deterministically.

// randPlane fills a w×h plane from the seeded rng, with full 0..255
// range so overflow/borrow corner cases are exercised.
func randPlane(rng *rand.Rand, w, h int) []uint8 {
	pix := make([]uint8, w*h)
	for i := range pix {
		pix[i] = uint8(rng.Intn(256))
	}
	return pix
}

// TestAbsDiffAvgExhaustive checks the two SWAR byte primitives against
// every (a, b) byte pair, replicated across all 8 lanes.
func TestAbsDiffAvgExhaustive(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			va := uint64(a) * 0x0101010101010101
			vb := uint64(b) * 0x0101010101010101
			wantAbs := a - b
			if wantAbs < 0 {
				wantAbs = -wantAbs
			}
			wantAvg := (a + b + 1) >> 1
			gotAbs := absDiffU64(va, vb)
			gotAvg := avgRoundU64(va, vb)
			for lane := 0; lane < 8; lane++ {
				if byte(gotAbs>>(8*lane)) != byte(wantAbs) {
					t.Fatalf("absDiffU64(%d,%d) lane %d = %d, want %d",
						a, b, lane, byte(gotAbs>>(8*lane)), wantAbs)
				}
				if byte(gotAvg>>(8*lane)) != byte(wantAvg) {
					t.Fatalf("avgRoundU64(%d,%d) lane %d = %d, want %d",
						a, b, lane, byte(gotAvg>>(8*lane)), wantAvg)
				}
			}
		}
	}
}

// TestBlockSADMatchesScalar sweeps random geometries, including
// positions far outside the plane, against the clamped scalar SAD.
func TestBlockSADMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{4, 8, 16, 32, 64}
	for trial := 0; trial < 400; trial++ {
		n := sizes[rng.Intn(len(sizes))]
		w := n + rng.Intn(64)
		h := n + rng.Intn(64)
		ref := Ref{Pix: randPlane(rng, w, h), W: w, H: h}
		curStride := n + rng.Intn(32)
		cur := randPlane(rng, curStride, n)
		ix := rng.Intn(w+2*n+6) - n - 3
		iy := rng.Intn(h+2*n+6) - n - 3
		got := blockSAD(cur, curStride, ref, ix, iy, n, 1<<62)
		want := blockSADRef(cur, curStride, ref, ix, iy, n)
		if got != want {
			t.Fatalf("blockSAD(n=%d w=%d h=%d ix=%d iy=%d) = %d, want %d",
				n, w, h, ix, iy, got, want)
		}
		// Early exit must stop at or above the bound without exceeding
		// the true SAD.
		if want > 0 {
			bound := int64(rng.Intn(int(want))) + 1
			early := blockSAD(cur, curStride, ref, ix, iy, n, bound)
			if early < bound && early != want {
				t.Fatalf("early-exit SAD %d below bound %d but != full %d", early, bound, want)
			}
			if early > want {
				t.Fatalf("early-exit SAD %d exceeds full SAD %d", early, want)
			}
		}
	}
}

// TestPlanarSADMatchesScalar checks the exported strided SAD.
func TestPlanarSADMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := []int{4, 8, 16, 32}[rng.Intn(4)]
		as := n + rng.Intn(40)
		bs := n + rng.Intn(40)
		a := randPlane(rng, as, n)
		b := randPlane(rng, bs, n)
		var want int64
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				d := int32(a[y*as+x]) - int32(b[y*bs+x])
				if d < 0 {
					d = -d
				}
				want += int64(d)
			}
		}
		if got := PlanarSAD(a, as, b, bs, n); got != want {
			t.Fatalf("PlanarSAD(n=%d) = %d, want %d", n, got, want)
		}
	}
}

// TestPlanarSSEMatchesScalar sweeps random geometries plus extreme-value
// planes (all-0 vs all-255 maximizes every squared term) against the
// scalar reference.
func TestPlanarSSEMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := []int{4, 8, 16, 32}[rng.Intn(4)]
		as := n + rng.Intn(40)
		bs := n + rng.Intn(40)
		var a, b []uint8
		if trial%5 == 0 {
			a = make([]uint8, as*n)
			b = make([]uint8, bs*n)
			for i := range b {
				b[i] = 255
			}
		} else {
			a = randPlane(rng, as, n)
			b = randPlane(rng, bs, n)
		}
		want := PlanarSSERef(a, as, b, bs, n)
		if got := PlanarSSE(a, as, b, bs, n); got != want {
			t.Fatalf("PlanarSSE(n=%d) = %d, want %d", n, got, want)
		}
	}
}

// TestSampleBlockMatchesScalar sweeps all 64 fractional phases for both
// filters over interior and edge-straddling positions of a random plane,
// then the even phases over the lane extremes (sampleAtLaneExtremes).
func TestSampleBlockMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const w, h = 96, 72
	for _, sharp := range []bool{false, true} {
		ref := Ref{Pix: randPlane(rng, w, h), W: w, H: h, Sharp: sharp}
		sc := NewScratch()
		for _, n := range []int{8, 16, 24} {
			got := make([]uint8, n*n)
			want := make([]uint8, n*n)
			for fy := 0; fy < 8; fy++ {
				for fx := 0; fx < 8; fx++ {
					// Interior, all four edges, corners, and fully outside.
					positions := [][2]int{
						{w / 2, h / 2},
						{0, h / 2}, {w - n, h / 2}, {w / 2, 0}, {w / 2, h - n},
						{0, 0}, {w - n, h - n},
						{-n - 2, h / 2}, {w + 2, -n - 1},
						{rng.Intn(w), rng.Intn(h)},
					}
					for _, pos := range positions {
						dx := int16(rng.Intn(17) - 8)
						dy := int16(rng.Intn(17) - 8)
						mv := MV{X: dx*8 + int16(fx), Y: dy*8 + int16(fy)}
						SampleBlock(ref, pos[0], pos[1], mv, got, n, sc)
						sampleBlockRef(ref, pos[0], pos[1], mv, want, n)
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("SampleBlock sharp=%v n=%d pos=%v mv=%v phase=(%d,%d): pixel %d = %d, want %d",
									sharp, n, pos, mv, fx, fy, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
	sampleAtLaneExtremes(t)
}

// TestSampleBlockRejectsOtherSizes: a block side that is not a multiple
// of 8 panics, naming the size, rather than sampling a wrong block.
func TestSampleBlockRejectsOtherSizes(t *testing.T) {
	ref := Ref{Pix: make([]uint8, 64*64), W: 64, H: 64, Sharp: true}
	for _, n := range []int{3, 4, 12, 20} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, fmt.Sprintf("side %d is not a multiple of 8", n)) {
					t.Errorf("n=%d: recovered %q", n, msg)
				}
			}()
			SampleBlock(ref, 8, 8, MV{X: 3, Y: 5}, make([]uint8, n*n), n, NewScratch())
		}()
	}
}

// extremePlanes are w×h planes that drive the interpolation lanes to
// their limits: all 0 and all 255 (the clamps), and 0/255 checkerboards
// of 1×1 and 2×2 cells, whose runs 0, 255, 255, 0 put 255 under both
// positive taps and 0 under both negative ones, or the reverse: the
// largest and the most negative lane sums of both passes.
func extremePlanes(w, h int) map[string][]uint8 {
	planes := map[string][]uint8{}
	for name, f := range map[string]func(x, y int) int{
		"zero":     func(x, y int) int { return 0 },
		"full":     func(x, y int) int { return 1 },
		"check1x1": func(x, y int) int { return (x + y) & 1 },
		"check2x2": func(x, y int) int { return ((x+1)>>1 + (y+1)>>1) & 1 },
	} {
		pix := make([]uint8, w*h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				pix[y*w+x] = uint8(255 * f(x, y))
			}
		}
		planes[name] = pix
	}
	return planes
}

// sampleAtLaneExtremes runs every even phase — the luma phases of a
// quarter-pel vector — at block sizes 8 to 64 over extremePlanes,
// interior, on the bounds of each kernel's interior test and straddling
// each edge and corner, for both filters, against the scalar reference.
func sampleAtLaneExtremes(t *testing.T) {
	for f, c := range catmullTaps {
		if c[0] > 0 || c[3] > 0 || c[1] < 0 || c[2] < 0 || c[1]+c[2] > 72 || -c[0]-c[3] > 8 {
			t.Fatalf("phase %d taps %v leave the lane bounds swar.go is written for", f, c)
		}
	}
	const w, h = 88, 80
	sc := NewScratch()
	for name, pix := range extremePlanes(w, h) {
		for _, sharp := range []bool{false, true} {
			ref := Ref{Pix: pix, W: w, H: h, Sharp: sharp}
			for _, n := range []int{8, 16, 24, 32, 64} {
				got, want := make([]uint8, n*n), make([]uint8, n*n)
				mid := [2]int{(w - n) / 2, (h - n) / 2}
				positions := [][2]int{mid,
					{1, 1}, {w - n - 2, h - n - 2}, {0, 0}, {w - n - 1, h - n - 1},
					{-n / 2, mid[1]}, {w - n/2, mid[1]}, {mid[0], -n / 2}, {mid[0], h - n/2},
					{-1, -1}, {w - n + 1, h - n + 1}}
				for fy := 0; fy < 8; fy += 2 {
					for fx := 0; fx < 8; fx += 2 {
						for _, pos := range positions {
							mv := MV{X: int16(fx), Y: int16(fy)}
							SampleBlock(ref, pos[0], pos[1], mv, got, n, sc)
							sampleBlockRef(ref, pos[0], pos[1], mv, want, n)
							for i := range got {
								if got[i] != want[i] {
									t.Fatalf("%s sharp=%v n=%d pos=%v phase=(%d,%d): pixel %d = %d, want %d",
										name, sharp, n, pos, fx, fy, i, got[i], want[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestSampleCompoundMatchesScalar checks the SWAR blend against the
// rounding average of two scalar predictions.
func TestSampleCompoundMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const w, h = 80, 64
	for trial := 0; trial < 120; trial++ {
		sharp := trial%2 == 0
		refA := Ref{Pix: randPlane(rng, w, h), W: w, H: h, Sharp: sharp}
		refB := Ref{Pix: randPlane(rng, w, h), W: w, H: h, Sharp: sharp}
		n := []int{8, 16, 32}[rng.Intn(3)]
		bx, by := rng.Intn(w), rng.Intn(h)
		mvA := MV{X: int16(rng.Intn(129) - 64), Y: int16(rng.Intn(129) - 64)}
		mvB := MV{X: int16(rng.Intn(129) - 64), Y: int16(rng.Intn(129) - 64)}
		got := make([]uint8, n*n)
		SampleCompound(refA, mvA, refB, mvB, bx, by, got, n, NewScratch())
		pa := make([]uint8, n*n)
		pb := make([]uint8, n*n)
		sampleBlockRef(refA, bx, by, mvA, pa, n)
		sampleBlockRef(refB, bx, by, mvB, pb, n)
		for i := range got {
			want := uint8((int32(pa[i]) + int32(pb[i]) + 1) >> 1)
			if got[i] != want {
				t.Fatalf("SampleCompound trial %d pixel %d = %d, want %d", trial, i, got[i], want)
			}
		}
	}
}

// TestSearchDeterministicWithPyramid runs the pyramid-seeded search
// twice over identical inputs and expects identical results, and checks
// the window clamp still holds.
func TestSearchDeterministicWithPyramid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const w, h = 128, 96
	refPix := randPlane(rng, w, h)
	curPix := shift(refPix, w, h, 11, -6)
	pyrRef := BuildPyramid(refPix, w, h)
	pyrCur := BuildPyramid(curPix, w, h)
	ref := Ref{Pix: refPix, W: w, H: h, Pyr: pyrRef}
	p := SearchParams{RangeX: 16, RangeY: 16, SubPelDepth: 2, LambdaMVCost: 2,
		Pyramid: true, CurPyr: pyrCur}
	for _, pos := range [][2]int{{48, 40}, {16, 16}, {96, 64}} {
		a := Search(curPix[pos[1]*w+pos[0]:], w, ref, pos[0], pos[1], Zero, 16, p, NewScratch())
		b := Search(curPix[pos[1]*w+pos[0]:], w, ref, pos[0], pos[1], Zero, 16, p, NewScratch())
		if a != b {
			t.Fatalf("pyramid search not deterministic at %v: %v vs %v", pos, a, b)
		}
		if a.MV.X > 16*8 || a.MV.X < -16*8 || a.MV.Y > 16*8 || a.MV.Y < -16*8 {
			t.Fatalf("pyramid search escaped window: %v", a.MV)
		}
	}
}

// TestPyramidSearchFindsLargeTranslation: the coarse levels must localize
// motion the small seeded diamond alone would miss.
func TestPyramidSearchFindsLargeTranslation(t *testing.T) {
	w, h := 256, 192
	refPix := makePlane(w, h, 21)
	curPix := shift(refPix, w, h, 23, 9)
	pyrRef := BuildPyramid(refPix, w, h)
	pyrCur := BuildPyramid(curPix, w, h)
	ref := Ref{Pix: refPix, W: w, H: h, Pyr: pyrRef}
	p := SearchParams{RangeX: 32, RangeY: 32, SubPelDepth: 0,
		Pyramid: true, CurPyr: pyrCur}
	res := Search(curPix[96*w+96:], w, ref, 96, 96, Zero, 16, p, NewScratch())
	if res.MV.X != 23*8 || res.MV.Y != 9*8 {
		t.Fatalf("pyramid search found (%d,%d)/8 sad=%d, want (184,72)/8",
			res.MV.X, res.MV.Y, res.SAD)
	}
	if res.SAD != 0 {
		t.Fatalf("exact translation should reach SAD 0, got %d", res.SAD)
	}
}

// TestScratchReuseIsStateless: reusing one Scratch across different
// block sizes and kernels must not change results.
func TestScratchReuseIsStateless(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const w, h = 64, 64
	ref := Ref{Pix: randPlane(rng, w, h), W: w, H: h, Sharp: true}
	shared := NewScratch()
	for trial := 0; trial < 50; trial++ {
		n := []int{24, 16, 8, 32}[rng.Intn(4)]
		mv := MV{X: int16(rng.Intn(65) - 32), Y: int16(rng.Intn(65) - 32)}
		bx, by := rng.Intn(w-n), rng.Intn(h-n)
		got := make([]uint8, n*n)
		want := make([]uint8, n*n)
		SampleBlock(ref, bx, by, mv, got, n, shared)
		SampleBlock(ref, bx, by, mv, want, n, NewScratch())
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("scratch reuse changed output (trial %d, pixel %d)", trial, i)
			}
		}
	}
}

// TestSampleSharpAllocatesNothing: the sharp sub-pel interpolator runs
// per candidate inside the encoder's RD search and per block in the
// decoder, so the edge-extended window of a block that leaves the frame
// lives in the caller's Scratch, and a call allocates nothing once the
// Scratch has grown to the block size: in the frame (the strip kernel),
// straddling its corner (the window), into a frame-strided block, both
// chroma planes at once, and compound.
func TestSampleSharpAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const w, h, n = 64, 64, 16
	ref := Ref{Pix: randPlane(rng, w, h), W: w, H: h, Sharp: true}
	refB := Ref{Pix: randPlane(rng, w, h), W: w, H: h, Sharp: true}
	dst, dstB := make([]uint8, w*h), make([]uint8, w*h)
	sc := NewScratch()
	for name, call := range map[string]func(){
		"in frame":  func() { SampleBlock(ref, 20, 20, MV{X: 3, Y: 5}, dst, n, sc) },
		"edge":      func() { SampleBlock(ref, w-n+1, -2, MV{X: 3, Y: 5}, dst, n, sc) },
		"strided":   func() { SampleInto(ref, 20, 20, MV{X: 3, Y: 5}, dst[8*w+8:], w, n, sc) },
		"pair edge": func() { SamplePair(ref, refB, -3, h-n+2, MV{X: 5, Y: 3}, dst, dstB, w, n, sc) },
		"compound":  func() { SampleCompoundInto(ref, MV{X: 3, Y: 5}, refB, MV{X: -2, Y: 1}, 0, 0, dst, w, n, sc) },
	} {
		if allocs := testing.AllocsPerRun(10, call); allocs != 0 {
			t.Errorf("%s: sharp sub-pel sampling allocates %.1f times per call, want 0", name, allocs)
		}
	}
}

// TestSamplePairMatchesSampleBlock holds SamplePair to two SampleBlock
// calls, one per plane, for both filters, every phase of both axes,
// blocks of 8, 16 and 32, in the frame, on the bounds of each kernel's
// interior test and straddling every edge and corner, written into
// frame-strided blocks whose surroundings must not move.
func TestSamplePairMatchesSampleBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const w, h, stride = 72, 56, 80
	sc := NewScratch()
	for _, sharp := range []bool{false, true} {
		refU := Ref{Pix: randPlane(rng, w, h), W: w, H: h, Sharp: sharp}
		refV := Ref{Pix: randPlane(rng, w, h), W: w, H: h, Sharp: sharp}
		for _, n := range []int{8, 16, 32} {
			wantU, wantV := make([]uint8, n*n), make([]uint8, n*n)
			positions := [][2]int{{(w - n) / 2, (h - n) / 2},
				{1, 1}, {w - n - 2, h - n - 2}, {0, 0}, {w - n, h - n}, {w - n - 1, 2},
				{-n / 2, h / 2}, {w - n/2, 3}, {5, -n / 2}, {w / 2, h - n/2}, {-n - 3, -1}, {w + 1, h + 4}}
			for fy := 0; fy < 8; fy++ {
				for fx := 0; fx < 8; fx++ {
					for _, pos := range positions {
						mv := MV{X: int16(rng.Intn(5)-2)*8 + int16(fx), Y: int16(rng.Intn(5)-2)*8 + int16(fy)}
						SampleBlock(refU, pos[0], pos[1], mv, wantU, n, sc)
						SampleBlock(refV, pos[0], pos[1], mv, wantV, n, sc)
						planeU := bytes.Repeat([]byte{0xA5}, stride*(n+6))
						planeV := bytes.Repeat([]byte{0x5A}, stride*(n+6))
						const x0, y0 = 3, 2
						SamplePair(refU, refV, pos[0], pos[1], mv, planeU[y0*stride+x0:], planeV[y0*stride+x0:], stride, n, sc)
						for _, p := range []struct {
							got, want []uint8
							fill      uint8
						}{{planeU, wantU, 0xA5}, {planeV, wantV, 0x5A}} {
							for i, v := range p.got {
								r, c := i/stride-y0, i%stride-x0
								want := p.fill
								if r >= 0 && r < n && c >= 0 && c < n {
									want = p.want[r*n+c]
								}
								if v != want {
									t.Fatalf("sharp=%v n=%d pos=%v mv=%v: pixel (%d,%d) = %d, want %d",
										sharp, n, pos, mv, r, c, v, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// --- kernel benchmarks (tracked via scripts/bench.sh) -----------------------

func benchRefPlane(b *testing.B) (Ref, []uint8, int) {
	b.Helper()
	w, h := 640, 360
	refPix := makePlane(w, h, 11)
	curPix := shift(refPix, w, h, 3, 2)
	return Ref{Pix: refPix, W: w, H: h}, curPix, w
}

func BenchmarkBlockSAD16(b *testing.B) {
	ref, cur, w := benchRefPlane(b)
	b.SetBytes(16 * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blockSAD(cur[100*w+100:], w, ref, 103, 102, 16, 1<<62)
	}
}

func BenchmarkSampleSharp16(b *testing.B) {
	ref, _, _ := benchRefPlane(b)
	ref.Sharp = true
	dst := make([]uint8, 16*16)
	sc := NewScratch()
	b.SetBytes(16 * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampleBlock(ref, 100, 100, MV{X: 3, Y: 5}, dst, 16, sc)
	}
}

func BenchmarkSampleBilinear16(b *testing.B) {
	ref, _, _ := benchRefPlane(b)
	dst := make([]uint8, 16*16)
	sc := NewScratch()
	b.SetBytes(16 * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampleBlock(ref, 100, 100, MV{X: 3, Y: 5}, dst, 16, sc)
	}
}

func BenchmarkSampleCompound16(b *testing.B) {
	ref, cur, w := benchRefPlane(b)
	ref.Sharp = true
	refB := Ref{Pix: cur, W: w, H: ref.H, Sharp: true}
	dst := make([]uint8, 16*16)
	sc := NewScratch()
	b.SetBytes(16 * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampleCompound(ref, MV{X: 3, Y: 5}, refB, MV{X: -2, Y: 1}, 100, 100, dst, 16, sc)
	}
}

func BenchmarkPyramidSearch16(b *testing.B) {
	ref, cur, w := benchRefPlane(b)
	ref.Pyr = BuildPyramid(ref.Pix, w, ref.H)
	p := SearchParams{RangeX: 16, RangeY: 16, SubPelDepth: 2, LambdaMVCost: 2,
		Pyramid: true, CurPyr: BuildPyramid(cur, w, ref.H)}
	sc := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Search(cur[100*w+100:], w, ref, 100, 100, Zero, 16, p, sc)
	}
}

func BenchmarkBuildPyramid360p(b *testing.B) {
	ref, _, _ := benchRefPlane(b)
	b.SetBytes(int64(ref.W * ref.H))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildPyramid(ref.Pix, ref.W, ref.H)
	}
}
