package motion

import "openvcu/internal/video"

// Pyramid is the 2-level downsampled image pyramid used to seed motion
// search coarse-to-fine, modeling the hardware's exhaustive
// multi-resolution search (paper §3.2). Level 0 is half resolution,
// level 1 quarter resolution. A pyramid is built once per plane — the
// encoder caches one per reference slot alongside the reconstructed
// frame, plus one for the current source frame — and is read-only
// afterwards, so concurrent tile encoders may share it.
type Pyramid struct {
	Levels [2]PyrLevel
}

// PyrLevel is one downsampled plane.
type PyrLevel struct {
	Pix  []uint8
	W, H int
}

// BuildPyramid constructs the 2-level pyramid of a w×h plane.
func BuildPyramid(pix []uint8, w, h int) *Pyramid {
	p := &Pyramid{}
	p.Build(pix, w, h)
	return p
}

// Build fills p with the pyramid of a w×h plane, reusing the levels'
// buffers when they are large enough: the encoder recycles a reference's
// pyramid with its frame. The zero value is ready for Build.
func (p *Pyramid) Build(pix []uint8, w, h int) {
	for i := range p.Levels {
		l := &p.Levels[i]
		w1, h1 := (w+1)/2, (h+1)/2
		if cap(l.Pix) < w1*h1 {
			l.Pix = make([]uint8, w1*h1)
		}
		l.Pix = l.Pix[:w1*h1]
		l.W, l.H = video.Downsample2x(pix, w, h, l.Pix)
		pix, w, h = l.Pix, l.W, l.H
	}
}

// pyramidSeed runs the coarse levels of the multi-resolution search and
// returns a full-pel full-resolution candidate displacement: an
// exhaustive scan of the (window/4)-sized quarter-resolution window
// around the block, then a ±1 refinement at half resolution. Both passes
// scan in fixed raster order with strict improvement, so the result is
// deterministic. The block must be at least 16×16 so the quarter-res
// block is a SAD-able 4×4.
func pyramidSeed(curPyr, refPyr *Pyramid, bx, by, n int, p SearchParams) (int, int) {
	l2c, l2r := &curPyr.Levels[1], &refPyr.Levels[1]
	n2 := n / 4
	bx2, by2 := bx/4, by/4
	cur2 := l2c.Pix[by2*l2c.W+bx2:]
	ref2 := Ref{Pix: l2r.Pix, W: l2r.W, H: l2r.H}
	rx2 := (p.RangeX + 3) / 4
	ry2 := (p.RangeY + 3) / 4
	bestSAD := int64(1 << 62)
	bdx, bdy := 0, 0
	for dy := -ry2; dy <= ry2; dy++ {
		for dx := -rx2; dx <= rx2; dx++ {
			sad := blockSAD(cur2, l2c.W, ref2, bx2+dx, by2+dy, n2, bestSAD)
			if sad < bestSAD {
				bestSAD, bdx, bdy = sad, dx, dy
			}
		}
	}

	l1c, l1r := &curPyr.Levels[0], &refPyr.Levels[0]
	n1 := n / 2
	bx1, by1 := bx/2, by/2
	cur1 := l1c.Pix[by1*l1c.W+bx1:]
	ref1 := Ref{Pix: l1r.Pix, W: l1r.W, H: l1r.H}
	cx, cy := 2*bdx, 2*bdy
	bestSAD = 1 << 62
	bdx, bdy = cx, cy
	for dy := cy - 1; dy <= cy+1; dy++ {
		for dx := cx - 1; dx <= cx+1; dx++ {
			sad := blockSAD(cur1, l1c.W, ref1, bx1+dx, by1+dy, n1, bestSAD)
			if sad < bestSAD {
				bestSAD, bdx, bdy = sad, dx, dy
			}
		}
	}
	return clampInt(2*bdx, -p.RangeX, p.RangeX), clampInt(2*bdy, -p.RangeY, p.RangeY)
}
