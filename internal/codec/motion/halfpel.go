package motion

import "openvcu/internal/video"

// HalfPlanes are the three half-sample planes of a reference plane — the
// software analogue of the hardware's reference store (paper §3.2), which
// is filled once per reference and read by every candidate of every
// partition size. Plane pixel (x, y) is exactly what SampleBlock
// interpolates at full-pel origin (x, y) and phase (4,0), (0,4) or (4,4)
// in 1/8-pel: the reference's filter, a Q12 (sharp) or Q6 (bilinear)
// intermediate, one rounding, edge extension by clamped coordinates. So
// an in-frame block at a half-sample phase is a view of a plane, and
// reading it or interpolating it are the same bytes.
//
// The zero value is ready for Build. Planes are read-only after Build:
// concurrent tile encoders share them as they share a Pyramid.
type HalfPlanes struct {
	// planes[fx>>2+fy>>1-1] holds phase (fx, fy), row-major, stride W.
	planes [3][]uint8
	// ring is Build's window of four horizontally filtered rows.
	ring []int16
}

// Build fills the planes from ref.Pix with ref's filter, reusing the
// receiver's buffers when they are large enough. Each source row is
// filtered horizontally once into a four-row ring; output row y reads
// ring rows y-1..y+2 (clamped), so the pass costs twelve multiplies per
// pixel for all three planes.
func (hp *HalfPlanes) Build(ref Ref) {
	w, h := ref.W, ref.H
	for i := range hp.planes {
		if cap(hp.planes[i]) < w*h {
			hp.planes[i] = make([]uint8, w*h)
		}
		hp.planes[i] = hp.planes[i][:w*h]
	}
	if cap(hp.ring) < 4*w {
		hp.ring = make([]int16, 4*w)
	}
	// Both filters as four taps at the half phase, Q(shift) per axis:
	// bilinear's outer taps are zero, so edge clamping never shows.
	taps, shift := [4]int32{0, 4, 4, 0}, uint(3)
	if ref.Sharp {
		taps, shift = catmullTaps[4], 6
	}
	half1, half2 := int32(1)<<(shift-1), int32(1)<<(2*shift-1)
	filtered := 0 // source rows below this one are in the ring
	for y := 0; y < h; y++ {
		for ; filtered < h && filtered <= y+2; filtered++ {
			halfRow(ref.Pix[filtered*w:filtered*w+w], hp.ring[(filtered&3)*w:][:w], &taps)
		}
		// Output row y reads source and ring rows y-1..y+2, clamped.
		row := func(k int) ([]uint8, []int16) {
			r := clampCoord(y-1+k, h)
			return ref.Pix[r*w:][:w], hp.ring[(r&3)*w:][:w]
		}
		s0, h0 := row(0)
		s1, h1 := row(1)
		s2, h2 := row(2)
		s3, h3 := row(3)
		outH := hp.planes[0][y*w:][:w]
		outV := hp.planes[1][y*w:][:w]
		outHV := hp.planes[2][y*w:][:w]
		t0, t1, t2, t3 := taps[0], taps[1], taps[2], taps[3]
		for x := 0; x < w; x++ {
			outH[x] = video.ClampU8((int32(h1[x]) + half1) >> shift)
			outV[x] = video.ClampU8((t0*int32(s0[x]) + t1*int32(s1[x]) + t2*int32(s2[x]) + t3*int32(s3[x]) + half1) >> shift)
			outHV[x] = video.ClampU8((t0*int32(h0[x]) + t1*int32(h1[x]) + t2*int32(h2[x]) + t3*int32(h3[x]) + half2) >> (2 * shift))
		}
	}
}

// halfRow filters one source row horizontally at the half phase: out[x]
// is taps applied to src[x-1..x+2], coordinates clamped at the row ends.
func halfRow(src []uint8, out []int16, taps *[4]int32) {
	w := len(out)
	for x := 0; x < w; x++ {
		if x >= 1 && x+2 < w {
			s := src[x-1 : x+3]
			out[x] = int16(taps[0]*int32(s[0]) + taps[1]*int32(s[1]) + taps[2]*int32(s[2]) + taps[3]*int32(s[3]))
			continue
		}
		out[x] = int16(taps[0]*int32(src[clampCoord(x-1, w)]) + taps[1]*int32(src[x]) +
			taps[2]*int32(src[clampCoord(x+1, w)]) + taps[3]*int32(src[clampCoord(x+2, w)]))
	}
}
