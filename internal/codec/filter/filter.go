// Package filter implements the final pipeline stage of the encoder core
// (paper Fig. 4 "Reconstruction"): the in-loop deblocking and restoration
// filters applied to reconstructed frames before they become references,
// and the motion-compensated temporal filter used to build VP9's
// synthetic alternate reference frames (paper §3.2). Each in-loop filter
// has one implementation, the striped one in parallel.go, which the
// encoder and the decoder both run: the reconstruction is defined once.
package filter

import (
	"openvcu/internal/codec/motion"
	"openvcu/internal/video"
)

// deblockVertRange filters every vertical block edge for rows [y0, y1),
// 8 rows a step. A vertical edge at column x writes columns x-1 and x of
// each row and reads x-2..x+1 of the same row only, so disjoint row
// ranges touch disjoint memory: any stripe decomposition is bit-exact.
// tv is the lane threshold (laneThreshold).
func deblockVertRange(pix []uint8, w, blockSize int, tv uint64, y0, y1 int) {
	for y := y0; y < y1; y += 8 {
		n := min(8, y1-y)
		for x := blockSize; x < w; x += blockSize {
			deblockVertRows(pix, w, x, y, n, tv)
		}
	}
}

// deblockHorizEdge filters the horizontal block edge at row y. It
// writes rows y-1 and y and reads rows y-2..y+1; edges are blockSize
// (≥ 4) rows apart, so distinct edges never overlap and parallel edge
// scheduling is bit-exact.
func deblockHorizEdge(pix []uint8, w, h int, tv uint64, y int) {
	ny := min(y+1, h-1)
	deblockHorizRow(
		pix[(y-2)*w:(y-2)*w+w],
		pix[(y-1)*w:(y-1)*w+w],
		pix[y*w:y*w+w],
		pix[ny*w:ny*w+w],
		w, tv)
}

// DeblockPlaneScalar is the original per-pixel loop filter of one plane,
// retained as the differential-test reference for DeblockParallel's
// lane-wide, striped passes.
func DeblockPlaneScalar(pix []uint8, w, h, blockSize, strength int) {
	if strength <= 0 {
		return
	}
	thresh := int32(2 + strength)
	// Vertical edges.
	for x := blockSize; x < w; x += blockSize {
		for y := 0; y < h; y++ {
			row := y * w
			p1 := int32(pix[row+x-2])
			p0 := int32(pix[row+x-1])
			q0 := int32(pix[row+x])
			q1 := int32(pix[row+x+minInt(1, w-1-x)])
			filterEdge(&p1, &p0, &q0, &q1, thresh)
			pix[row+x-1] = uint8(p0)
			pix[row+x] = uint8(q0)
		}
	}
	// Horizontal edges.
	for y := blockSize; y < h; y += blockSize {
		for x := 0; x < w; x++ {
			p1 := int32(pix[(y-2)*w+x])
			p0 := int32(pix[(y-1)*w+x])
			q0 := int32(pix[y*w+x])
			ny := y + 1
			if ny >= h {
				ny = h - 1
			}
			q1 := int32(pix[ny*w+x])
			filterEdge(&p1, &p0, &q0, &q1, thresh)
			pix[(y-1)*w+x] = uint8(p0)
			pix[y*w+x] = uint8(q0)
		}
	}
}

// filterEdge applies a 4-tap smoothing across one edge sample if the step
// looks like a quantization artifact (small discontinuity over an otherwise
// smooth neighborhood) rather than a real image edge.
func filterEdge(p1, p0, q0, q1 *int32, thresh int32) {
	d := *q0 - *p0
	if d < 0 {
		d = -d
	}
	if d == 0 || d > thresh {
		return // flat already, or a real edge to preserve
	}
	// neighborhood flatness check
	dp := *p0 - *p1
	if dp < 0 {
		dp = -dp
	}
	dq := *q1 - *q0
	if dq < 0 {
		dq = -dq
	}
	if dp > thresh || dq > thresh {
		return
	}
	avg := (*p0 + *q0 + 1) >> 1
	*p0 = (*p0*2 + avg + 1) / 3
	*q0 = (*q0*2 + avg + 1) / 3
}

// Deblock is DeblockParallel inline on the caller's goroutine. Its one
// caller is the benchmark ledger's codec.filter.deblock_360p_us row; it
// goes when that row calls DeblockParallel.
func Deblock(f *video.Frame, blockSize, strength int) { DeblockParallel(f, blockSize, strength, 1) }

// The temporal filter mirrors the hardware configuration (paper §3.2):
// 16×16 blocks are motion-aligned over a full-pel range of 8, and a
// neighbor pixel's blend weight falls from temporalStrength to 0 as its
// difference from the center pixel grows.
const (
	temporalBlock       = 16
	temporalSearchRange = 8
	temporalStrength    = 3
)

// TemporalFilter builds a denoised synthetic frame from a window of source
// frames centered on frames[center]. Each 16×16 block of each neighbor
// frame is motion-aligned to the center frame and blended with per-pixel
// weights that fall off with pixel difference — the paper's non-local-mean
// style filter producing alternate reference frames with low temporal
// noise. The filter can be applied iteratively to cover more frames.
func TemporalFilter(frames []*video.Frame, center int) *video.Frame {
	out := frames[center].Clone()
	if len(frames) == 1 {
		return out
	}
	const n = temporalBlock
	w, h := out.Width, out.Height
	cur := frames[center].Y
	acc := make([]int32, w*h)
	wgt := make([]int32, w*h)
	const centerWeight = 4
	for i := range cur {
		acc[i] = int32(cur[i]) * centerWeight
		wgt[i] = centerWeight
	}
	pred := make([]uint8, n*n)
	sc := motion.NewScratch()
	for fi, f := range frames {
		if fi == center {
			continue
		}
		ref := motion.Ref{Pix: f.Y, W: w, H: h}
		for by := 0; by < h; by += n {
			for bx := 0; bx < w; bx += n {
				bw := minInt(n, w-bx)
				bh := minInt(n, h-by)
				if bw < n || bh < n {
					continue // skip partial border blocks
				}
				res := motion.Search(cur[by*w+bx:], w, ref, bx, by, motion.Zero, n,
					motion.SearchParams{RangeX: temporalSearchRange, RangeY: temporalSearchRange, SubPelDepth: 1}, sc)
				motion.SampleBlock(ref, bx, by, res.MV, pred, n, sc)
				for y := 0; y < n; y++ {
					for x := 0; x < n; x++ {
						idx := (by+y)*w + bx + x
						d := int32(cur[idx]) - int32(pred[y*n+x])
						if d < 0 {
							d = -d
						}
						wg := temporalStrength - d/4
						if wg <= 0 {
							continue
						}
						acc[idx] += int32(pred[y*n+x]) * wg
						wgt[idx] += wg
					}
				}
			}
		}
	}
	for i := range out.Y {
		out.Y[i] = uint8((acc[i] + wgt[i]/2) / wgt[i])
	}
	return out
}

// RestorationWeights are the signalable blend weights (in 1/8ths) of the
// frame-level loop-restoration filter: the reconstructed frame is blended
// with its 3x3 box-smoothed version. Index is the 2-bit syntax element.
var RestorationWeights = [4]int32{0, 2, 4, 6}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
