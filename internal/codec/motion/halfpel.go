package motion

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
	// Build's window of the four source rows an output row reads, each
	// edge-extended by one sample left and to the padded width plus two
	// right, and of their horizontal lane sums, each in row order; one
	// output row.
	src  []uint8
	sums []uint64
	out  []uint8
}

// Build fills the planes from ref.Pix with ref's filter, reusing the
// receiver's buffers when they are large enough. It runs the row and
// column kernels of SampleBlock (swar.go) on rows padded to a multiple
// of 8 pixels: output row y reads source rows y-1..y+2 (clamped) from a
// window that moves down a row at a time, each row filtered horizontally
// once as it enters.
func (hp *HalfPlanes) Build(ref Ref) {
	w, h := ref.W, ref.H
	for i := range hp.planes {
		hp.planes[i] = grow(hp.planes[i], w*h)
	}
	if w*h == 0 {
		return
	}
	pw := (w + 7) &^ 7   // padded width
	rs, ws := pw+3, pw/4 // window strides: row bytes, sums words
	hp.src = grow(hp.src, 4*rs)
	hp.sums = grow(hp.sums, 4*ws)
	hp.out = grow(hp.out, pw)
	half := &sharpPhases[4]
	// enter puts source row r, clamped, into window row k.
	enter := func(k, r int) {
		row, ext := ref.Pix[clampCoord(r, h)*w:][:w], hp.src[k*rs:][:rs]
		ext[0] = row[0]
		for i := copy(ext[1:], row) + 1; i < len(ext); i++ {
			ext[i] = row[w-1]
		}
		if ref.Sharp {
			half.sums(ext, 1, hp.sums[k*ws:][:ws])
		} else {
			bilinearSums(ext[1:], 1, hp.sums[k*ws:][:ws], 4, 4)
		}
	}
	for k := 0; k < 3; k++ {
		enter(k+1, k-1) // rows -1, 0, 1 for output row 0, moved up below
	}
	for y := 0; y < h; y++ {
		copy(hp.src, hp.src[rs:])
		copy(hp.sums, hp.sums[ws:])
		enter(3, y+2)
		if ref.Sharp {
			sharpRound(hp.sums[ws:], hp.out)
			copy(hp.planes[0][y*w:], hp.out[:w])
			half.pass(hp.src[1:], rs, hp.out)
			copy(hp.planes[1][y*w:], hp.out[:w])
			half.cols(hp.sums, ws, hp.out)
		} else {
			bilinearRound(hp.sums[ws:], hp.out)
			copy(hp.planes[0][y*w:], hp.out[:w])
			bilinearPass(hp.src[rs+1:], rs, hp.out, 4, 4)
			copy(hp.planes[1][y*w:], hp.out[:w])
			bilinearCols(hp.sums[ws:], ws, hp.out, 4, 4)
		}
		copy(hp.planes[2][y*w:], hp.out[:w])
	}
}

// grow returns b resliced to n elements, reallocated if it is shorter.
func grow[T uint8 | uint64](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}
