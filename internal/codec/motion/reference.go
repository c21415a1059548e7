package motion

// Scalar reference kernels. These are the original per-pixel
// implementations, kept as the ground truth the optimized kernels in
// swar.go / motion.go must match bit-for-bit (ISSUE 2 tentpole
// requirement). Only the differential tests run them.

// blockSADRef is the scalar SAD with per-pixel edge clamping and no
// early exit.
func blockSADRef(cur []uint8, curStride int, ref Ref, ix, iy, n int) int64 {
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
	}
	return sad
}

// PlanarSSERef is the scalar per-pixel SSE, ground truth for PlanarSSE.
func PlanarSSERef(a []uint8, aStride int, b []uint8, bStride, n int) int64 {
	var sum int64
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			d := int64(a[y*aStride+x]) - int64(b[y*bStride+x])
			sum += d * d
		}
	}
	return sum
}

// sampleFullPelRef is the scalar full-pel copy with per-pixel clamping.
func sampleFullPelRef(ref Ref, ix, iy int, dst []uint8, n int) {
	for y := 0; y < n; y++ {
		sy := clampCoord(iy+y, ref.H)
		row := ref.Pix[sy*ref.W:]
		for x := 0; x < n; x++ {
			dst[y*n+x] = row[clampCoord(ix+x, ref.W)]
		}
	}
}

// sampleBilinearRef is the scalar 2x2 bilinear interpolator (direct,
// non-separable form) with per-pixel clamping.
func sampleBilinearRef(ref Ref, ix, iy, fx, fy int, dst []uint8, n int) {
	for y := 0; y < n; y++ {
		sy0 := clampCoord(iy+y, ref.H)
		sy1 := clampCoord(iy+y+1, ref.H)
		for x := 0; x < n; x++ {
			sx0 := clampCoord(ix+x, ref.W)
			sx1 := clampCoord(ix+x+1, ref.W)
			p00 := int32(ref.Pix[sy0*ref.W+sx0])
			p01 := int32(ref.Pix[sy0*ref.W+sx1])
			p10 := int32(ref.Pix[sy1*ref.W+sx0])
			p11 := int32(ref.Pix[sy1*ref.W+sx1])
			top := p00*int32(8-fx) + p01*int32(fx)
			bot := p10*int32(8-fx) + p11*int32(fx)
			dst[y*n+x] = uint8((top*int32(8-fy) + bot*int32(fy) + 32) >> 6)
		}
	}
}

// sampleSharpRef is the scalar direct (non-separable) 4x4 Catmull-Rom
// interpolator with per-pixel clamping: 16 multiplies per output pixel.
func sampleSharpRef(ref Ref, ix, iy, fx, fy int, dst []uint8, n int) {
	tx := catmullTaps[fx]
	ty := catmullTaps[fy]
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			var acc int32
			for r := 0; r < 4; r++ {
				sy := clampCoord(iy+y+r-1, ref.H)
				row := ref.Pix[sy*ref.W:]
				var h int32
				for c := 0; c < 4; c++ {
					sx := clampCoord(ix+x+c-1, ref.W)
					h += tx[c] * int32(row[sx])
				}
				acc += ty[r] * h
			}
			v := (acc + 1<<11) >> 12
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			dst[y*n+x] = uint8(v)
		}
	}
}

// sampleBlockRef composes the scalar kernels exactly as the original
// SampleBlock did; differential tests compare the optimized SampleBlock
// against this for every phase and position.
func sampleBlockRef(ref Ref, bx, by int, mv MV, dst []uint8, n int) {
	px := bx*8 + int(mv.X)
	py := by*8 + int(mv.Y)
	ix := px >> 3
	iy := py >> 3
	fx := px - ix*8
	fy := py - iy*8
	switch {
	case fx == 0 && fy == 0:
		sampleFullPelRef(ref, ix, iy, dst, n)
	case ref.Sharp:
		sampleSharpRef(ref, ix, iy, fx, fy, dst, n)
	default:
		sampleBilinearRef(ref, ix, iy, fx, fy, dst, n)
	}
}
