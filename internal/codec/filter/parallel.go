package filter

// The in-loop filters, as the encoder and the decoder run them. Each pass
// (vertical edges, then horizontal; restoration; smooth, then the SSE
// scans) is one par.Do over row stripes of memory-disjoint output,
// and par.Do returning is the barrier between passes, so every worker
// count produces the same bytes; the tests hold each filter to a plain
// per-plane reference. A stripe is worked out from its index alone; with
// workers == 1 the stripes run in order on the caller's goroutine.

import (
	"openvcu/internal/par"
	"openvcu/internal/video"
)

// deblockStripeRows is the row granularity of the striped passes — one
// luma superblock row per stripe keeps stripes coarse enough that the
// fan-out is noise.
const deblockStripeRows = 64

type planeJob struct {
	pix  []uint8
	w, h int
	bs   int
}

func deblockPlanes(f *video.Frame, blockSize int) [3]planeJob {
	cw, ch := video.ChromaDims(f.Width, f.Height)
	cb := maxInt(blockSize/2, 4)
	return [3]planeJob{
		{f.Y, f.Width, f.Height, blockSize},
		{f.U, cw, ch, cb},
		{f.V, cw, ch, cb},
	}
}

// stripes is par.Do for stripe work, which cannot fail: fn(k) for every
// k in [0, n) on at most workers goroutines, returning once all have.
func stripes(n, workers int, fn func(k int) error) {
	//lint:ignore errdrop every stripe function returns nil
	_ = par.Do(n, workers, fn)
}

// numStripes is how many stripes cover h rows.
func numStripes(h int) int {
	return (h + deblockStripeRows - 1) / deblockStripeRows
}

// stripe maps stripe k of f's three planes, numbered plane after plane,
// to its plane (blockSize as in deblockPlanes), the plane's offset in a
// buffer holding the planes back to back, and its rows [y0, y1).
func stripe(f *video.Frame, blockSize, k int) (p planeJob, off, y0, y1 int) {
	for _, p = range deblockPlanes(f, blockSize) {
		if n := numStripes(p.h); k >= n {
			k -= n
			off += len(p.pix)
			continue
		}
		y0 = k * deblockStripeRows
		return p, off, y0, minInt(y0+deblockStripeRows, p.h)
	}
	panic("filter: stripe index out of range")
}

// frameStripes is how many stripes cover f's three planes.
func frameStripes(f *video.Frame) (n int) {
	for _, p := range deblockPlanes(f, 0) {
		n += numStripes(p.h)
	}
	return n
}

// DeblockParallel smooths the block-grid edges of all three planes in
// place (blockSize: the luma transform grid; strength grows with QP),
// with the two passes striped over at most workers goroutines (par.Do's
// limit). Every worker count gives DeblockPlaneScalar's bytes on each
// plane: the vertical pass writes only each stripe's own rows, the
// horizontal pass writes only the two rows at each edge (edges ≥ 4 rows
// apart), and the first pass has returned before the second starts.
func DeblockParallel(f *video.Frame, blockSize, strength, workers int) {
	if strength <= 0 {
		return
	}
	tv := laneThreshold(int32(2 + strength))
	n := frameStripes(f)
	stripes(n, workers, func(k int) error {
		p, _, y0, y1 := stripe(f, blockSize, k)
		deblockVertRange(p.pix, p.w, p.bs, tv, y0, y1)
		return nil
	})
	// The horizontal edges inside a stripe's rows; the first edge of a
	// plane is at row bs.
	stripes(n, workers, func(k int) error {
		p, _, s0, s1 := stripe(f, blockSize, k)
		first := maxInt((s0+p.bs-1)/p.bs*p.bs, p.bs)
		for y := first; y < s1; y += p.bs {
			deblockHorizEdge(p.pix, p.w, p.h, tv, y)
		}
		return nil
	})
}

// restoreRange writes rows [y0, y1) of pix restored at weight wgt into
// the same rows of dst: ((8-wgt)*pix + wgt*smooth + 4) / 8, smooth the
// 3x3 box filter (edge-clamped), so wgt 8 writes the smooth itself.
// Reads may touch rows y0-1/y1 of pix, but each pixel of dst is written
// once, from pix alone, so stripes over a dst apart from pix parallelize.
func restoreRange(dst, pix []uint8, w, h, y0, y1 int, wgt int32) {
	for y := y0; y < y1; y++ {
		for x := 0; x < w; x++ {
			var sum int32
			for dy := -1; dy <= 1; dy++ {
				sy := y + dy
				if sy < 0 {
					sy = 0
				}
				if sy >= h {
					sy = h - 1
				}
				for dx := -1; dx <= 1; dx++ {
					sx := x + dx
					if sx < 0 {
						sx = 0
					}
					if sx >= w {
						sx = w - 1
					}
					sum += int32(pix[sy*w+sx])
				}
			}
			smooth := (sum + 4) / 9
			dst[y*w+x] = uint8((int32(pix[y*w+x])*(8-wgt) + smooth*wgt + 4) >> 3)
		}
	}
}

// RestoreParallel applies loop restoration with the given weight index in
// place: pix = ((8-w)*pix + w*smooth(pix)) / 8, w = RestorationWeights
// of the index, and weight 0 is the identity. This is the AV1-class "loop
// restoration" stage, run after deblocking. One pass, striped over all
// three planes and at most workers goroutines, writes the restored planes
// back to back into a side buffer, so every stripe smooths from
// unrestored pixels whatever the worker count; the planes are then copied
// back.
func RestoreParallel(f *video.Frame, weightIdx, workers int) {
	w := RestorationWeights[weightIdx&3]
	if w == 0 {
		return
	}
	restored := make([]uint8, len(f.Y)+len(f.U)+len(f.V))
	stripes(frameStripes(f), workers, func(k int) error {
		p, off, y0, y1 := stripe(f, 0, k)
		restoreRange(restored[off:off+len(p.pix)], p.pix, p.w, p.h, y0, y1, w)
		return nil
	})
	off := 0
	for _, p := range [...][]uint8{f.Y, f.U, f.V} {
		off += copy(p, restored[off:])
	}
}

// BestRestorationWeightParallel picks the weight index minimizing luma
// SSE against the source — the encoder-side search whose result is
// signaled to the decoder — with the box smooth and the per-weight SSE
// scans striped over at most workers goroutines. Scan k writes its own
// slot of partial (weight-major), and the slots are summed in fixed
// order, so the result is identical for every worker count.
func BestRestorationWeightParallel(recon, src *video.Frame, workers int) int {
	w, h := recon.Width, recon.Height
	nStripes := numStripes(h)
	smooth := make([]uint8, len(recon.Y))
	stripes(nStripes, workers, func(k int) error {
		y0 := k * deblockStripeRows
		restoreRange(smooth, recon.Y, w, h, y0, minInt(y0+deblockStripeRows, h), 8)
		return nil
	})

	partial := make([]int64, len(RestorationWeights)*nStripes)
	stripes(len(partial), workers, func(k int) error {
		wgt := RestorationWeights[k/nStripes]
		y0 := (k % nStripes) * deblockStripeRows
		y1 := minInt(y0+deblockStripeRows, h)
		var sse int64
		for i := y0 * w; i < y1*w; i++ {
			v := (int32(recon.Y[i])*(8-wgt) + int32(smooth[i])*wgt + 4) >> 3
			d := int64(v) - int64(src.Y[i])
			sse += d * d
		}
		partial[k] = sse
		return nil
	})

	best, bestSSE := 0, int64(-1)
	for idx := range RestorationWeights {
		var sse int64
		for s := 0; s < nStripes; s++ {
			sse += partial[idx*nStripes+s]
		}
		if bestSSE < 0 || sse < bestSSE {
			best, bestSSE = idx, sse
		}
	}
	return best
}
