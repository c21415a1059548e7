package motion

import (
	"math/rand"
	"testing"
)

// searchNoMemo is Search as it was before it remembered the full-pel
// points it had measured: every try is measured, revisits included. It is
// the reference TestSearchMatchesNoMemo holds Search to.
func searchNoMemo(cur []uint8, curStride int, ref Ref, bx, by int, pred MV, n int, p SearchParams, sc *Scratch) Result {
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

	best := Result{MV: Zero, SAD: 1 << 62}
	tryFull := func(dx, dy int) {
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

	// Starting candidates: zero and the predicted vector (rounded to full pel).
	tryFull(0, 0)
	px, py := int(pred.X)>>3, int(pred.Y)>>3
	if px != 0 || py != 0 {
		px = clampInt(px, -p.RangeX, p.RangeX)
		py = clampInt(py, -p.RangeY, p.RangeY)
		tryFull(px, py)
	}

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

// TestSearchMatchesNoMemo holds Search to searchNoMemo over textured
// blocks under random motion, ranges up to one past memoRange (where the
// bitmap no longer fits), predicted vectors inside and far outside the
// window, flat and pyramid-seeded, diamond and exhaustive, with and
// without the rate penalty and sub-pel refinement.
func TestSearchMatchesNoMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const w, h = 160, 128
	for seed := uint64(1); seed <= 4; seed++ {
		refPix := makePlane(w, h, seed)
		curPix := shift(refPix, w, h, rng.Intn(31)-15, rng.Intn(21)-10)
		ref := Ref{Pix: refPix, W: w, H: h, Pyr: BuildPyramid(refPix, w, h)}
		curPyr := BuildPyramid(curPix, w, h)
		for trial := 0; trial < 150; trial++ {
			n := []int{8, 16, 32}[rng.Intn(3)]
			bx, by := 4*rng.Intn((w-n)/4+1), 4*rng.Intn((h-n)/4+1)
			p := SearchParams{
				RangeX: rng.Intn(memoRange + 2), RangeY: rng.Intn(memoRange + 2),
				SubPelDepth:  rng.Intn(3),
				Exhaustive:   trial%10 == 0,
				LambdaMVCost: int64(rng.Intn(3)),
				Pyramid:      trial%2 == 0,
				CurPyr:       curPyr,
			}
			pred := MV{int16(rng.Intn(161) - 80), int16(rng.Intn(161) - 80)}
			if trial%3 == 0 { // far outside any window
				pred = MV{int16(rng.Intn(2001) - 1000), int16(rng.Intn(2001) - 1000)}
			}
			cur := curPix[by*w+bx:]
			got := Search(cur, w, ref, bx, by, pred, n, p, NewScratch())
			want := searchNoMemo(cur, w, ref, bx, by, pred, n, p, NewScratch())
			if got != want {
				t.Fatalf("seed %d trial %d (n=%d at %d,%d, pred %v, %+v): %v, without the memo %v",
					seed, trial, n, bx, by, pred, p, got, want)
			}
		}
	}
}
