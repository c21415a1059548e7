package video

// Scale resamples src to w×h. Downscaling uses box filtering (area
// averaging) to avoid aliasing; upscaling uses bilinear interpolation.
// This is the "Scale" stage of the transcoding pipelines in Fig. 2.
func Scale(src *Frame, w, h int) *Frame {
	if w == src.Width && h == src.Height {
		return src.Clone()
	}
	dst := NewFrame(w, h)
	scalePlane(src.Y, src.Width, src.Height, dst.Y, w, h)
	scw, sch := ChromaDims(src.Width, src.Height)
	dcw, dch := ChromaDims(w, h)
	scalePlane(src.U, scw, sch, dst.U, dcw, dch)
	scalePlane(src.V, scw, sch, dst.V, dcw, dch)
	return dst
}

// ScaleTo resamples src to a ladder resolution.
func ScaleTo(src *Frame, r Resolution) *Frame { return Scale(src, r.Width, r.Height) }

func scalePlane(src []uint8, sw, sh int, dst []uint8, dw, dh int) {
	if dw <= sw && dh <= sh {
		boxScale(src, sw, sh, dst, dw, dh)
	} else {
		bilinearScale(src, sw, sh, dst, dw, dh)
	}
}

// boxScale averages the source-rectangle covered by each destination
// pixel: destination column dx covers source columns [dx·sw/dw,
// (dx+1)·sw/dw), at least one, and rows likewise. Each row walk steps the
// column spans by sw/dw with a running remainder, and divides a box's sum
// by multiplying with a reciprocal for each of the row's two span widths:
// no pixel costs a division, and nothing is allocated.
func boxScale(src []uint8, sw, sh int, dst []uint8, dw, dh int) {
	q, r := sw/dw, sw%dw // a column span is q or q+1 wide
	for dy := 0; dy < dh; dy++ {
		y0 := dy * sh / dh
		y1 := max((dy+1)*sh/dh, y0+1)
		rows := y1 - y0
		recip := [2]uint64{areaRecip(rows * max(q, 1)), areaRecip(rows * (q + 1))}
		drow := dst[dy*dw : dy*dw+dw]
		x0, rem := 0, 0 // x0 = dx·sw/dw, rem = dx·sw mod dw
		for dx := range drow {
			x1, wide := x0+q, 0
			if rem += r; rem >= dw {
				rem -= dw
				x1, wide = x1+1, 1
			}
			width := max(x1-x0, 1)
			var sum uint32
			for y := y0; y < y1; y++ {
				for _, v := range src[y*sw+x0:][:width] {
					sum += uint32(v)
				}
			}
			drow[dx] = uint8(uint64(sum+uint32(rows*width/2)) * recip[wide] >> areaShift)
			x0 = x1
		}
	}
}

// areaShift and areaRecip divide a rounded box sum x = s + a/2 by its
// area a as a multiply-shift with M = ceil(2^areaShift/a):
// floor(x·M/2^areaShift) = floor(x/a) for every x < 2^areaShift/a
// (Granlund–Montgomery). x is under 256·a, so the identity holds for
// every box under 2^((areaShift−8)/2) = 2^24 pixels (an 8K frame scaled
// to 2×2 is one), and x·M stays under 2^64.
const areaShift = 56

func areaRecip(a int) uint64 { return (1<<areaShift + uint64(a) - 1) / uint64(a) }

func bilinearScale(src []uint8, sw, sh int, dst []uint8, dw, dh int) {
	const fp = 16
	xStep := ((sw - 1) << fp) / maxInt(dw-1, 1)
	yStep := ((sh - 1) << fp) / maxInt(dh-1, 1)
	for dy := 0; dy < dh; dy++ {
		fy := dy * yStep
		y0 := fy >> fp
		wy := int32(fy & ((1 << fp) - 1))
		y1 := minInt(y0+1, sh-1)
		for dx := 0; dx < dw; dx++ {
			fx := dx * xStep
			x0 := fx >> fp
			wx := int32(fx & ((1 << fp) - 1))
			x1 := minInt(x0+1, sw-1)
			const one = 1 << fp
			p00 := int32(src[y0*sw+x0])
			p01 := int32(src[y0*sw+x1])
			p10 := int32(src[y1*sw+x0])
			p11 := int32(src[y1*sw+x1])
			top := (p00*(one-wx) + p01*wx) >> fp
			bot := (p10*(one-wx) + p11*wx) >> fp
			dst[dy*dw+dx] = uint8((top*(int32(one)-wy) + bot*wy + one/2) >> fp)
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
