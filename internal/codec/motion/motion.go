// Package motion implements the motion estimation and compensation stage of
// the encoder core (paper Fig. 4): multi-reference block search over a
// bounded window (the SRAM reference store), multi-resolution pyramid
// seeding, diamond and exhaustive search, sub-pel refinement down to
// 1/8-pel, and compound (two-reference averaged) prediction for the
// VP9-class profile.
//
// The pixel kernels are organized in three layers:
//
//   - swar.go: SWAR primitives processing 8 pixels per uint64 (SAD rows,
//     compound averaging, the sub-pel filters' row and column passes in
//     16- and 32-bit lanes).
//   - motion.go (this file): the interpolators and search, which run
//     those passes over rows that are views of the plane, or over edge
//     rows or windows clamped once (Scratch.row, Scratch.window), not
//     once per tap; SamplePair runs them on a frame's two chroma planes
//     in one call.
//   - reference.go: the retained scalar kernels, bit-exact ground truth
//     for the differential tests.
//
// Nothing in this package allocates per call
// (TestSampleSharpAllocatesNothing holds the interpolator that needs a
// buffer to it); callers thread a *Scratch for the buffers the kernels
// need.
package motion

import "strconv"

// MV is a motion vector in 1/8-pel units.
type MV struct{ X, Y int16 }

// Zero is the null motion vector.
var Zero = MV{}

// Add returns a + b; each component wraps at int16, it does not
// saturate. A hostile stream can therefore decode to any vector: what
// keeps the decoder inside the reference is the sampling path, which
// clamps every coordinate it reads (clampCoord), not this sum.
func (a MV) Add(b MV) MV { return MV{a.X + b.X, a.Y + b.Y} }

// Sub returns a - b.
func (a MV) Sub(b MV) MV { return MV{a.X - b.X, a.Y - b.Y} }

// Ref is a reference plane for motion search.
type Ref struct {
	Pix  []uint8
	W, H int
	// Sharp selects the 4-tap (Catmull-Rom) sub-pel interpolation filter
	// instead of bilinear. The VP9-class profile uses the sharp filter
	// (VP9's 8-tap family); the H.264-class profile keeps the simpler
	// one — sub-pel prediction quality is one of the newer codec's tools.
	Sharp bool
	// Pyr, if non-nil, is the downsampled pyramid of Pix, enabling
	// multi-resolution search seeding. The encoder builds it once per
	// reference frame and caches it in the reference store.
	Pyr *Pyramid
	// Half, if non-nil, holds the half-sample planes of Pix: in-frame
	// blocks at a half-sample phase are read from them instead of being
	// interpolated. Nil means interpolate, which is what the decoder does.
	Half *HalfPlanes
}

// catmullTaps[f] are the 4 integer taps (sum 64) of the Catmull-Rom
// interpolator at fractional phase f/8, applied to samples at offsets
// -1, 0, +1, +2.
var catmullTaps = buildCatmullTaps()

func buildCatmullTaps() [8][4]int32 {
	var t [8][4]int32
	for f := 0; f < 8; f++ {
		x := float64(f) / 8
		w0 := -0.5*x + x*x - 0.5*x*x*x
		w1 := 1 - 2.5*x*x + 1.5*x*x*x
		w2 := 0.5*x + 2*x*x - 1.5*x*x*x
		w3 := -0.5*x*x + 0.5*x*x*x
		t[f][0] = int32(mathRound(w0 * 64))
		t[f][1] = int32(mathRound(w1 * 64))
		t[f][2] = int32(mathRound(w2 * 64))
		t[f][3] = int32(mathRound(w3 * 64))
		// Renormalize rounding drift so the taps sum to exactly 64.
		sum := t[f][0] + t[f][1] + t[f][2] + t[f][3]
		t[f][1] += 64 - sum
	}
	return t
}

// mathRound avoids importing math for one call.
func mathRound(v float64) float64 {
	if v >= 0 {
		return float64(int64(v + 0.5))
	}
	return float64(int64(v - 0.5))
}

// clampCoord performs edge extension.
func clampCoord(v, max int) int {
	if v < 0 {
		return 0
	}
	if v >= max {
		return max - 1
	}
	return v
}

// row returns the n samples of row y of pix, a w×h plane, from column x
// on, edge extended: a view of the plane when the columns are inside it,
// else gathered once into sc.edge with clamped coordinates, so an
// interpolator runs its interior filter over the row either way.
func (sc *Scratch) row(pix []uint8, w, h, x, y, n int) []uint8 {
	src := pix[clampCoord(y, h)*w:][:w]
	if x >= 0 && x+n <= w {
		return src[x : x+n]
	}
	row := sc.edge[:n]
	for i := range row {
		row[i] = src[clampCoord(x+i, w)]
	}
	return row
}

// window returns the n×n samples of pix, a w×h plane, from (x, y) on,
// rows srcStride apart: a view of the plane when they lie inside it,
// else gathered once into sc.edge, edge extended, with stride n.
func (sc *Scratch) window(pix []uint8, w, h, x, y, n int) (src []uint8, srcStride int) {
	if x >= 0 && y >= 0 && x+n <= w && y+n <= h {
		return pix[y*w+x:], w
	}
	win := sc.edge[:n*n]
	for r := 0; r < n; r++ {
		row := pix[clampCoord(y+r, h)*w:][:w]
		out := win[r*n:][:n]
		if x >= 0 && x+n <= w {
			copy(out, row[x:])
			continue
		}
		for i := range out {
			out[i] = row[clampCoord(x+i, w)]
		}
	}
	return win, n
}

// splitPos splits the position of the block at (bx, by) displaced by mv
// into its full-pel origin and its 1/8-pel phase. The division floors, so
// the phase is never negative whatever the vector's sign.
func splitPos(bx, by int, mv MV) (ix, iy, fx, fy int) {
	px := bx*8 + int(mv.X)
	py := by*8 + int(mv.Y)
	ix = px >> 3 // arithmetic shift == floor division by 8
	iy = py >> 3
	return ix, iy, px - ix*8, py - iy*8
}

// stored returns the n×n block at (ix, iy), phase (fx, fy), as a view
// (stride ref.W) of a plane that already holds that phase: Pix for full
// pel, a half-sample plane when the reference carries them. It returns
// nil when the phase is stored nowhere or the block leaves the frame.
func (ref *Ref) stored(ix, iy, fx, fy, n int) []uint8 {
	if ix < 0 || iy < 0 || ix+n > ref.W || iy+n > ref.H {
		return nil
	}
	switch {
	case fx|fy == 0:
		return ref.Pix[iy*ref.W+ix:]
	case ref.Half != nil && (fx|fy)&3 == 0:
		return ref.Half.planes[fx>>2+fy>>1-1][iy*ref.W+ix:]
	}
	return nil
}

// SampleBlock fills dst (n×n row-major) with the motion-compensated
// prediction for the block whose top-left is (bx, by), displaced by mv.
// A phase the reference stores is a row copy; other fractional positions
// use the reference's sub-pel filter and out-of-frame positions edge
// extension. n is a multiple of 8, the step of the interpolators' lanes
// (swar.go); SampleBlock panics on any other n. sc provides the
// interpolation scratch.
func SampleBlock(ref Ref, bx, by int, mv MV, dst []uint8, n int, sc *Scratch) {
	SampleInto(ref, bx, by, mv, dst, n, n, sc)
}

// SampleInto is SampleBlock into the n×n block at the start of dst whose
// rows lie stride apart, such as a block of a frame: the codec samples
// each prediction where it reconstructs it.
func SampleInto(ref Ref, bx, by int, mv MV, dst []uint8, stride, n int, sc *Scratch) {
	samplePlanes(&ref, planes{pix: [2][]uint8{ref.Pix}, dst: [2][]uint8{dst}, k: 1}, bx, by, mv, stride, n, sc)
}

// SamplePair is SampleInto on two planes of one size and filter, the
// same block displaced by the same vector: a frame's U and V. refB gives
// only its Pix, and neither reference's Half is read. The position, the
// phase, the edge test and the scratch setup are made once for both.
func SamplePair(refA, refB Ref, bx, by int, mv MV, dstA, dstB []uint8, stride, n int, sc *Scratch) {
	refA.Half = nil
	samplePlanes(&refA, planes{pix: [2][]uint8{refA.Pix, refB.Pix}, dst: [2][]uint8{dstA, dstB}, k: 2}, bx, by, mv, stride, n, sc)
}

// planes are the one or two planes of ref's size a sampling call reads,
// pix[i] sampled into the block at the start of dst[i], for i < k.
type planes struct {
	pix, dst [2][]uint8
	k        int
}

// samplePlanes is SampleInto and SamplePair: each plane of pl at the block
// (bx, by) displaced by mv, into blocks whose rows lie stride apart.
func samplePlanes(ref *Ref, pl planes, bx, by int, mv MV, stride, n int, sc *Scratch) {
	if n%8 != 0 {
		panic("motion: SampleBlock block side " + strconv.Itoa(n) + " is not a multiple of 8")
	}
	ix, iy, fx, fy := splitPos(bx, by, mv)
	if src := ref.stored(ix, iy, fx, fy, n); src != nil && pl.k == 1 {
		copyBlock(pl.dst[0], stride, src, ref.W, n)
		return
	}
	switch {
	case fx|fy == 0:
		sc.setup(n)
		for i := range pl.k {
			src, srcStride := sc.window(pl.pix[i], ref.W, ref.H, ix, iy, n)
			copyBlock(pl.dst[i], stride, src, srcStride, n)
		}
	case ref.Sharp:
		sampleSharp(ref, pl, ix, iy, fx, fy, stride, n, sc)
	default:
		sampleBilinear(ref, pl, ix, iy, fx, fy, stride, n, sc)
	}
}

// copyBlock copies the n×n block of src (rows srcStride apart) into dst
// (rows stride apart).
func copyBlock(dst []uint8, stride int, src []uint8, srcStride, n int) {
	for y := 0; y < n; y++ {
		copy(dst[y*stride:][:n], src[y*srcStride:][:n])
	}
}

// sampleSharp applies the 4-tap Catmull-Rom interpolator at phase
// (fx, fy)/8 in separable form, on the lanes of swar.go, to each plane of
// pl: sharpStrips runs a horizontal pass over the n+3 source rows and a
// vertical pass in 32-bit lanes over their sums (biased 16-bit lanes, at
// most 20408), 8 columns at a time, reading the rows in the plane or,
// for a block that leaves the frame, from Scratch.window's edge-extended
// copy of them. Weights are Q6 per axis (Q12 combined); the integer
// intermediate makes the result bit-exact with the direct scalar form in
// reference.go. n is a multiple of 8.
//
// A phase with one fractional axis runs one pass: the full-pel axis'
// taps are {0, 64, 0, 0}, a scale by 64, and (64·h + 1<<11) >> 12 ==
// (h + 32) >> 6. A horizontal pass reads its rows from Scratch.row, so
// it serves any block; a vertical one reads four rows a plane stride
// apart, so it serves blocks whose rows and columns are in the frame.
func sampleSharp(ref *Ref, pl planes, ix, iy, fx, fy, stride, n int, sc *Scratch) {
	hx, hy := &sharpPhases[fx], &sharpPhases[fy]
	w, h := ref.W, ref.H
	switch {
	case fy == 0:
		sc.setup(n)
		for i := range pl.k {
			for y := 0; y < n; y++ {
				hx.pass(sc.row(pl.pix[i], w, h, ix-1, iy+y, n+3), 1, pl.dst[i][y*stride:][:n])
			}
		}
	case fx == 0 && ix >= 0 && iy >= 1 && ix+n <= w && iy+n+2 <= h:
		for i := range pl.k {
			for y := 0; y < n; y++ {
				hy.pass(pl.pix[i][(iy+y-1)*w+ix:], w, pl.dst[i][y*stride:][:n])
			}
		}
	default:
		sc.setup(n)
		for i := range pl.k {
			src, srcStride := sc.window(pl.pix[i], w, h, ix-1, iy-1, n+3)
			sharpStrips(hx, hy, src, srcStride, pl.dst[i], stride, n)
		}
	}
}

// sampleBilinear applies the 2-tap bilinear interpolator in separable
// form on the lanes of swar.go to each plane of pl, as sampleSharp does
// with bilinearStrips over n+1 rows: a horizontal Q3 pass (at most 8·255
// = 2040 a lane), then a Q3 vertical pass with the same +32 >> 6
// rounding as the direct form (at most 8·2040 + 32 = 16352), so the
// output is bit-exact with it (no clamp needed: the result is always in
// 0..255). n is a multiple of 8.
//
// A phase with one fractional axis runs one pass, where sampleSharp
// does: the full-pel axis scales by 8, and (8·h + 32) >> 6 == (h + 4) >> 3.
func sampleBilinear(ref *Ref, pl planes, ix, iy, fx, fy, stride, n int, sc *Scratch) {
	w0, w1 := uint64(8-fx), uint64(fx)
	v0, v1 := uint64(8-fy), uint64(fy)
	w, h := ref.W, ref.H
	switch {
	case fy == 0:
		sc.setup(n)
		for i := range pl.k {
			for y := 0; y < n; y++ {
				bilinearPass(sc.row(pl.pix[i], w, h, ix, iy+y, n+1), 1, pl.dst[i][y*stride:][:n], w0, w1)
			}
		}
	case fx == 0 && ix >= 0 && iy >= 0 && ix+n <= w && iy+n+1 <= h:
		for i := range pl.k {
			for y := 0; y < n; y++ {
				bilinearPass(pl.pix[i][(iy+y)*w+ix:], w, pl.dst[i][y*stride:][:n], v0, v1)
			}
		}
	default:
		sc.setup(n)
		for i := range pl.k {
			src, srcStride := sc.window(pl.pix[i], w, h, ix, iy, n+1)
			bilinearStrips(src, srcStride, pl.dst[i], stride, n, w0, w1, v0, v1)
		}
	}
}

// SampleCompound fills dst with the average of two single-reference
// predictions (VP9 compound prediction). The second prediction lands in
// sc.pred and the blend runs 8 pixels per step.
func SampleCompound(refA Ref, mvA MV, refB Ref, mvB MV, bx, by int, dst []uint8, n int, sc *Scratch) {
	SampleCompoundInto(refA, mvA, refB, mvB, bx, by, dst, n, n, sc)
}

// SampleCompoundInto is SampleCompound into the n×n block at the start
// of dst whose rows lie stride apart.
func SampleCompoundInto(refA Ref, mvA MV, refB Ref, mvB MV, bx, by int, dst []uint8, stride, n int, sc *Scratch) {
	sc.setup(n)
	SampleInto(refA, bx, by, mvA, dst, stride, n, sc)
	tmp := sc.pred
	SampleInto(refB, bx, by, mvB, tmp, n, n, sc)
	for y := 0; y < n; y++ {
		avgBlocks(dst[y*stride:], tmp[y*n:], n)
	}
}

// blockSAD computes the SAD between the current block (cur with stride
// curStride at origin) and the full-pel reference block at (ix, iy),
// with early exit once the running total reaches best. Fully-in-bounds
// blocks take the SWAR path; edge-straddling blocks fall back to the
// clamped scalar reference.
func blockSAD(cur []uint8, curStride int, ref Ref, ix, iy, n int, best int64) int64 {
	if ix >= 0 && iy >= 0 && ix+n <= ref.W && iy+n <= ref.H {
		return sadPlanar(cur, curStride, ref.Pix[iy*ref.W+ix:], ref.W, n, best)
	}
	var sad int64
	for y := 0; y < n; y++ {
		sy := clampCoord(iy+y, ref.H)
		for x := 0; x < n; x++ {
			sx := clampCoord(ix+x, ref.W)
			d := int32(cur[y*curStride+x]) - int32(ref.Pix[sy*ref.W+sx])
			if d < 0 {
				d = -d
			}
			sad += int64(d)
		}
		if sad >= best {
			return sad
		}
	}
	return sad
}

// subPelSAD computes SAD for an arbitrary (possibly fractional) mv, with
// early exit once the running total reaches best. A phase the reference
// stores is compared in place; any other candidate is interpolated into
// sc.pred first.
func subPelSAD(cur []uint8, curStride int, ref Ref, bx, by int, mv MV, n int, best int64, sc *Scratch) int64 {
	ix, iy, fx, fy := splitPos(bx, by, mv)
	if src := ref.stored(ix, iy, fx, fy, n); src != nil {
		return sadPlanar(cur, curStride, src, ref.W, n, best)
	}
	sc.setup(n)
	pred := sc.pred
	SampleBlock(ref, bx, by, mv, pred, n, sc)
	return sadPlanar(cur, curStride, pred, n, n, best)
}

// SearchParams bound the motion search. They model the hardware reference
// store: the search window is what fits in the 768×192-pixel SRAM (paper
// footnote 4), i.e. ±128 horizontally and ±64 vertically of full-pel range,
// with most searches using a much smaller diamond refinement.
type SearchParams struct {
	// RangeX/RangeY are full-pel window half-widths.
	RangeX, RangeY int
	// SubPelDepth: 0 = full-pel only, 1 = half, 2 = quarter, 3 = eighth.
	SubPelDepth int
	// Exhaustive scans the full window instead of diamond search. The
	// hardware performs an exhaustive multi-resolution search (paper
	// §3.2); software speed settings use the diamond.
	Exhaustive bool
	// LambdaMVCost, if nonzero, adds an MV-magnitude penalty (in SAD units
	// per 1/8-pel step) approximating the rate cost of coding the vector.
	LambdaMVCost int64
	// Pyramid enables multi-resolution seeding: when the reference
	// carries a pyramid and CurPyr is set, the full-pel diamond starts
	// from the coarse-level winner and skips the large-step phase.
	Pyramid bool
	// CurPyr is the pyramid of the current source plane, built once per
	// frame by the encoder.
	CurPyr *Pyramid
}

// Result is the outcome of a motion search.
type Result struct {
	MV  MV
	SAD int64 // SAD including MV cost penalty
}

// memoRange is the widest full-pel range whose window Search remembers
// the points of: the encoder's Speed 0 range. The window is ±(Range+1),
// since the 3×3 ring around the pyramid seed reaches one point past it.
const memoRange = 24

// Search finds the best motion vector for the n×n block at (bx, by) of the
// current plane (cur, stride curStride addresses the block's top-left
// pixel). pred is the predicted vector used both as a search start and as
// the rate-cost origin. sc provides the sub-pel scratch; it must not be
// shared across goroutines.
//
// Each full-pel point is measured at most once: the ring around the
// pyramid seed, zero and the predicted vector overlap the diamond's
// steps. Skipping a revisit is exact, since best only falls and a tie
// keeps the earlier point, so a revisit can never win. Above memoRange
// the bitmap does not fit and every try is measured.
func Search(cur []uint8, curStride int, ref Ref, bx, by int, pred MV, n int, p SearchParams, sc *Scratch) Result {
	mvCost := func(mv MV) int64 {
		if p.LambdaMVCost == 0 {
			return 0
		}
		d := mv.Sub(pred)
		ax, ay := int64(d.X), int64(d.Y)
		if ax < 0 {
			ax = -ax
		}
		if ay < 0 {
			ay = -ay
		}
		return p.LambdaMVCost * (ax + ay)
	}

	var seen [((2*memoRange+3)*(2*memoRange+3) + 63) / 64]uint64
	w := 2*p.RangeX + 3
	memo := p.RangeX <= memoRange && p.RangeY <= memoRange
	best := Result{MV: Zero, SAD: 1 << 62}
	tryFull := func(dx, dy int) {
		if memo {
			b := uint((dy+p.RangeY+1)*w + dx + p.RangeX + 1)
			if seen[b/64]&(1<<(b%64)) != 0 {
				return
			}
			seen[b/64] |= 1 << (b % 64)
		}
		mv := MV{int16(dx * 8), int16(dy * 8)}
		cost := mvCost(mv)
		if cost >= best.SAD {
			return
		}
		sad := blockSAD(cur, curStride, ref, bx+dx, by+dy, n, best.SAD-cost) + cost
		if sad < best.SAD {
			best = Result{mv, sad}
		}
	}

	// Starting candidates: zero and the predicted vector (rounded to full
	// pel and clamped into the window).
	tryFull(0, 0)
	tryFull(clampInt(int(pred.X)>>3, -p.RangeX, p.RangeX), clampInt(int(pred.Y)>>3, -p.RangeY, p.RangeY))

	// Multi-resolution seeding: the coarse levels localize large motion,
	// so the full-resolution diamond only needs small steps. Requires
	// 4-aligned block geometry so the quarter-res block is well-formed.
	usePyr := p.Pyramid && !p.Exhaustive && p.CurPyr != nil && ref.Pyr != nil &&
		n >= 16 && n%4 == 0 && bx%4 == 0 && by%4 == 0
	if usePyr {
		sx, sy := pyramidSeed(p.CurPyr, ref.Pyr, bx, by, n, p)
		// 3×3 full-res refinement around the seed: the upsampled coarse
		// winner can be off by one in each axis (half-pel rounding at the
		// half-res level), and the axis-only diamond below cannot recover
		// a diagonal miss on textured content.
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				tryFull(sx+dx, sy+dy)
			}
		}
	}

	if p.Exhaustive {
		for dy := -p.RangeY; dy <= p.RangeY; dy++ {
			for dx := -p.RangeX; dx <= p.RangeX; dx++ {
				tryFull(dx, dy)
			}
		}
	} else {
		// Large-diamond-to-small-diamond search from the best start. With
		// a pyramid seed the coarse walk is already done at quarter/half
		// resolution: start at step 2 (the seed's upsampling uncertainty).
		step := maxInt(p.RangeX/2, 1)
		if usePyr {
			step = 2
		}
		for step >= 1 {
			improved := true
			for improved {
				improved = false
				cx, cy := int(best.MV.X)>>3, int(best.MV.Y)>>3
				for _, d := range [4][2]int{{step, 0}, {-step, 0}, {0, step}, {0, -step}} {
					nx, ny := cx+d[0], cy+d[1]
					if nx < -p.RangeX || nx > p.RangeX || ny < -p.RangeY || ny > p.RangeY {
						continue
					}
					before := best.SAD
					tryFull(nx, ny)
					if best.SAD < before {
						improved = true
					}
				}
			}
			step /= 2
		}
	}

	// Sub-pel refinement: successively halve the step in 1/8-pel units.
	for depth := 1; depth <= p.SubPelDepth; depth++ {
		step := int16(8 >> uint(depth)) // 4, 2, 1
		improved := true
		for improved {
			improved = false
			base := best.MV
			for _, d := range [4]MV{{step, 0}, {-step, 0}, {0, step}, {0, -step}} {
				mv := base.Add(d)
				cost := mvCost(mv)
				if cost >= best.SAD {
					continue
				}
				sad := subPelSAD(cur, curStride, ref, bx, by, mv, n, best.SAD-cost, sc) + cost
				if sad < best.SAD {
					best = Result{mv, sad}
					improved = true
				}
			}
		}
	}
	return best
}

// PredictMV returns the median-of-neighbors motion vector prediction used
// for both search initialization and differential MV coding. Missing
// neighbors are treated as zero.
func PredictMV(left, above, aboveRight MV, hasLeft, hasAbove, hasAR bool) MV {
	var cands [3]MV
	k := 0
	if hasLeft {
		cands[k] = left
		k++
	}
	if hasAbove {
		cands[k] = above
		k++
	}
	if hasAR {
		cands[k] = aboveRight
		k++
	}
	switch k {
	case 0:
		return Zero
	case 1:
		return cands[0]
	case 2:
		return MV{X: (cands[0].X + cands[1].X) / 2, Y: (cands[0].Y + cands[1].Y) / 2}
	default:
		return MV{X: median3(cands[0].X, cands[1].X, cands[2].X),
			Y: median3(cands[0].Y, cands[1].Y, cands[2].Y)}
	}
}

func median3(a, b, c int16) int16 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
