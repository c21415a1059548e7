package motion

// SWAR (SIMD-within-a-register) pixel kernels: 8 pixels per uint64 load.
// These model the VCU's wide datapath (paper §3.2 — the hardware encoder
// core processes whole sample rows per cycle) within pure Go. Every kernel
// here is bit-exact against the scalar references in reference.go; the
// differential tests in kernels_test.go enforce that across block sizes,
// strides, edge positions, and all fractional phases.
//
// The loads go through encoding/binary's LittleEndian, which the compiler
// turns into a single MOV on little-endian targets. Byte order does not
// affect correctness: SAD and averaging are per-byte operations whose
// horizontal reductions are order-independent.

import "encoding/binary"

const (
	swarMSB  = 0x8080808080808080 // per-byte sign bit
	swarLow7 = 0x7f7f7f7f7f7f7f7f
	swarLo16 = 0x00ff00ff00ff00ff // even bytes of each 16-bit lane
	swarOnes = 0x0001000100010001 // horizontal-fold multiplier
)

// absDiffU64 returns the per-byte absolute difference |a-b| of two packed
// 8-byte vectors. Standard SWAR construction: compute the wrapped per-byte
// difference d with the borrow chain cut at byte boundaries, recover the
// per-byte borrow-out (a<b) mask, and conditionally negate. When a byte
// borrows, d is nonzero, so the two's-complement negation (^d)+1 cannot
// carry across the byte boundary.
func absDiffU64(a, b uint64) uint64 {
	d := ((a | swarMSB) - (b &^ swarMSB)) ^ ((a ^ ^b) & swarMSB)
	borrow := ((^a & b) | ((^a | b) & d)) & swarMSB
	lt := borrow >> 7 // 0x01 in each byte where a < b
	return (d ^ (lt * 0xff)) + lt
}

// avgRoundU64 returns the per-byte rounding average (a+b+1)>>1, matching
// the compound-prediction blend. Identity: a+b = (a|b)+(a&b), so
// (a+b+1)>>1 == (a|b) - ((a^b)>>1). The mask keeps the shift from leaking
// a neighbor byte's low bit into this byte's high bit.
func avgRoundU64(a, b uint64) uint64 {
	return (a | b) - (((a ^ b) >> 1) & swarLow7)
}

// sadRow returns the SAD of two n-pixel rows. The packed absolute
// differences are accumulated in eight 16-bit lanes (each lane holds the
// sum of the even or odd bytes: at most 16 chunks = 4080 per lane for the
// largest n of 128, well under 65535) and folded with one multiply.
func sadRow(a, b []uint8, n int) int64 {
	var acc uint64
	x := 0
	for ; x+8 <= n; x += 8 {
		v := absDiffU64(binary.LittleEndian.Uint64(a[x:]), binary.LittleEndian.Uint64(b[x:]))
		acc += (v & swarLo16) + ((v >> 8) & swarLo16)
	}
	sum := int64((acc * swarOnes) >> 48)
	for ; x < n; x++ { // 4-wide blocks leave a scalar tail
		d := int32(a[x]) - int32(b[x])
		if d < 0 {
			d = -d
		}
		sum += int64(d)
	}
	return sum
}

// sadPlanar computes the SAD between an n×n block of a (stride aStride)
// and an n×n block of b (stride bStride), with per-row early exit once the
// running total reaches best. Both blocks must be fully in bounds.
func sadPlanar(a []uint8, aStride int, b []uint8, bStride, n int, best int64) int64 {
	var sad int64
	for y := 0; y < n; y++ {
		sad += sadRow(a[y*aStride:], b[y*bStride:], n)
		if sad >= best {
			return sad
		}
	}
	return sad
}

// PlanarSAD is the exported SAD entry point for benchmarks and tooling:
// SAD between an n×n block of a and an n×n block of b at the given
// strides, no early exit. Both blocks must be fully in bounds.
func PlanarSAD(a []uint8, aStride int, b []uint8, bStride, n int) int64 {
	return sadPlanar(a, aStride, b, bStride, n, 1<<62)
}

// sqU8 maps a byte to its square: the SWAR SSE kernel computes packed
// absolute differences 8 pixels at a time, then squares through this
// table — squaring has no lane-parallel bit trick, but the table turns
// the per-pixel subtract/abs/multiply chain into one lookup.
var sqU8 = func() (t [256]int64) {
	for i := range t {
		t[i] = int64(i) * int64(i)
	}
	return
}()

// sseRow returns the sum of squared differences of two n-pixel rows:
// packed |a-b| via absDiffU64, squared bytewise through sqU8.
func sseRow(a, b []uint8, n int) int64 {
	var sum int64
	x := 0
	for ; x+8 <= n; x += 8 {
		v := absDiffU64(binary.LittleEndian.Uint64(a[x:]), binary.LittleEndian.Uint64(b[x:]))
		sum += sqU8[v&0xff] + sqU8[v>>8&0xff] + sqU8[v>>16&0xff] + sqU8[v>>24&0xff] +
			sqU8[v>>32&0xff] + sqU8[v>>40&0xff] + sqU8[v>>48&0xff] + sqU8[v>>56]
	}
	for ; x < n; x++ {
		d := int64(a[x]) - int64(b[x])
		sum += d * d
	}
	return sum
}

// PlanarSSE computes the sum of squared errors between an n×n block of a
// (stride aStride) and an n×n block of b (stride bStride) — the RDO
// distortion metric. Both blocks must be fully in bounds. Bit-exact with
// PlanarSSERef.
func PlanarSSE(a []uint8, aStride int, b []uint8, bStride, n int) int64 {
	var sum int64
	for y := 0; y < n; y++ {
		sum += sseRow(a[y*aStride:], b[y*bStride:], n)
	}
	return sum
}

// avgBlocks overwrites dst[:count] with the per-byte rounding average of
// dst and src, 8 bytes at a time.
func avgBlocks(dst, src []uint8, count int) {
	i := 0
	for ; i+8 <= count; i += 8 {
		v := avgRoundU64(binary.LittleEndian.Uint64(dst[i:]), binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i:], v)
	}
	for ; i < count; i++ {
		dst[i] = uint8((int32(dst[i]) + int32(src[i]) + 1) >> 1)
	}
}

// --- interpolation lanes ----------------------------------------------------
//
// The sub-pel filters run on a block row 8 pixels at a time: a
// little-endian load of 8 source bytes is split into its even and odd
// bytes, each widened to four 16-bit lanes (v & swarLo16 and v>>8 &
// swarLo16), so one multiply by a tap weighs four pixels. Every lane sum
// is kept non-negative and under 2^16 — a bias lifts the sharp filter's
// negative sums — so no lane carries into or borrows from its neighbour.
// The pass that needs more than 16 bits (the sharp filter's vertical
// pass over row sums) widens each 16-bit lane into a 32-bit one. Outputs
// are put back into 8 bytes in pixel order and stored with one write.
// Every shift is by a constant.

const (
	lanes16  = 0x0001000100010001 // a one in each 16-bit lane
	lanes32  = 0x0000000100000001 // a one in each 32-bit lane
	swarLo32 = 0x0000ffff0000ffff // the low 16 bits of each 32-bit lane
)

// clampLanes maps each lane value u < 1024 of v, ones holding a one in
// each lane, to clamp(u−512, 0, 255): bit 9 clear means u−512 < 0, bits 9
// and 8 set mean u−512 ≥ 256, else u−512 is u's low byte.
func clampLanes(v, ones uint64) uint64 {
	b9 := v >> 9 & ones
	b8 := v >> 8 & b9
	return (v&(0xff*ones) | (b8<<8 - b8)) & (b9<<8 - b9)
}

// sharpPhase is one axis of the Catmull-Rom filter at a phase, as the
// lane kernels apply it: the magnitudes of its two negative outer taps
// (offsets −1, +2) and two positive inner ones (0, +1). At every phase
// the inner taps sum to at most 72 and the outer ones to at most 8.
// Phase 4, taps 4·{−1, 9, 9, −1}, marks half.
type sharpPhase struct {
	n0, p1, p2, n3 uint64
	half           bool
}

var sharpPhases = func() (t [8]sharpPhase) {
	for f, c := range catmullTaps {
		t[f] = sharpPhase{n0: uint64(-c[0]), p1: uint64(c[1]), p2: uint64(c[2]), n3: uint64(-c[3]), half: f == 4}
	}
	return
}()

// rowBias is what sharpPhase.sums adds to every sum: 2048 ≥ 8·255 lifts
// the most negative one above zero, and the largest, 72·255 + 2048 =
// 20408, stays under 2^15.
const rowBias = 2048

// sum applies the phase to four vectors of 16-bit lanes holding the
// samples at offsets −1, 0, +1, +2: Σ tᵢ·pᵢ + rowBias per lane.
//
// Phase 4 runs as shift-add on the quarter taps, 9(b+c) − (a+d) + 512 (9x
// is x<<3 + x), shifted left by 2 into the same sum: every pass after
// this one sees Q6 sums with one bias, whatever the phase.
func (ph *sharpPhase) sum(a, b, c, d uint64) uint64 {
	if ph.half {
		return (9*(b+c) + rowBias/4*lanes16 - (a + d)) << 2
	}
	return ph.p1*b + ph.p2*c + rowBias*lanes16 - (ph.n0*a + ph.n3*d)
}

// sums filters src into out, 8 pixels a step: output pixel x is the
// phase applied to src[x], src[x+step], src[x+2·step], src[x+3·step] —
// the samples at offsets −1, 0, +1, +2 of one row (step 1) or of four
// rows (step the row stride) — as sum gives it, for the even pixels of a
// step, then the odd ones. len(out) is twice the steps.
func (ph *sharpPhase) sums(src []uint8, step int, out []uint64) {
	for x, i := 0, 0; i+1 < len(out); x, i = x+8, i+2 {
		av, bv := binary.LittleEndian.Uint64(src[x:]), binary.LittleEndian.Uint64(src[x+step:])
		cv, dv := binary.LittleEndian.Uint64(src[x+2*step:]), binary.LittleEndian.Uint64(src[x+3*step:])
		out[i] = ph.sum(av&swarLo16, bv&swarLo16, cv&swarLo16, dv&swarLo16)
		out[i+1] = ph.sum(av>>8&swarLo16, bv>>8&swarLo16, cv>>8&swarLo16, dv>>8&swarLo16)
	}
}

// round turns a word of sums into the pixels of a one-axis pass, each
// clamp((Σ tᵢ·pᵢ + 32) >> 6) in the low byte of its lane. The added
// constant is the rounding term, less the bias, plus 512 << 6 for
// clampLanes; the sum stays under 2^16 (at most 20408 + 30752).
func round(h uint64) uint64 {
	const r, m = (32 + 512<<6 - rowBias) * lanes16, 0x3ff * lanes16
	return clampLanes((h+r)>>6&m, lanes16)
}

// sharpRound rounds rows of sums into dst, 8 pixels a step.
func sharpRound(sums []uint64, dst []uint8) {
	for x, i := 0, 0; x+8 <= len(dst); x, i = x+8, i+2 {
		binary.LittleEndian.PutUint64(dst[x:], round(sums[i])|round(sums[i+1])<<8)
	}
}

// pass is a one-axis pass straight into dst: sums and sharpRound in one
// step, read from src as sums reads it.
func (ph *sharpPhase) pass(src []uint8, step int, dst []uint8) {
	for x := 0; x+8 <= len(dst); x += 8 {
		av, bv := binary.LittleEndian.Uint64(src[x:]), binary.LittleEndian.Uint64(src[x+step:])
		cv, dv := binary.LittleEndian.Uint64(src[x+2*step:]), binary.LittleEndian.Uint64(src[x+3*step:])
		e := ph.sum(av&swarLo16, bv&swarLo16, cv&swarLo16, dv&swarLo16)
		o := ph.sum(av>>8&swarLo16, bv>>8&swarLo16, cv>>8&swarLo16, dv>>8&swarLo16)
		binary.LittleEndian.PutUint64(dst[x:], round(e)|round(o)<<8)
	}
}

// col applies the phase vertically to four rows of sums in 32-bit lanes,
// each lane the low or the high half of a 16-bit lane pair: clamp((Σ
// tyᵢ·hᵢ + 2048) >> 12) of the unbiased sums, before the clamp. With
// biased rows, Σ tyᵢ·(hᵢ+2048) = Σ tyᵢ·hᵢ + 64·2048, so the added
// constant is the rounding term, less that, plus 512 << 12 for
// clampLanes; the negative part, at most 8·20408, never exceeds it, and
// the sum stays under 2^22. Phase 4 runs on the quarter taps, as sum
// does, with the shift, the rounding term and the bias's weight (16·2048)
// a quarter: (4v + 2048) >> 12 = (v + 512) >> 10.
func (ph *sharpPhase) col(a, b, c, d uint64) uint64 {
	const m = 0x3ff * lanes32
	if ph.half {
		const k = (1<<9 + 512<<10 - 16*rowBias) * lanes32
		return (9*(b+c) + k - (a + d)) >> 10 & m
	}
	const k = (1<<11 + 512<<12 - 64*rowBias) * lanes32
	return (ph.p1*b + ph.p2*c + k - (ph.n0*a + ph.n3*d)) >> 12 & m
}

// cols is the vertical pass of the two-axis sharp filter: four rows of
// sums, stride words apart from h on, into the pixels of dst, 8 a step.
// The low and the high 16-bit lanes of each word are filtered apart, in
// 32-bit lanes; their results, under 2^10, fit 16-bit lanes again and
// are put back in place to be clamped together.
func (ph *sharpPhase) cols(h []uint64, stride int, dst []uint8) {
	for x, i := 0, 0; x+8 <= len(dst); x, i = x+8, i+2 {
		e0, e1, e2, e3 := h[i], h[i+stride], h[i+2*stride], h[i+3*stride]
		o0, o1, o2, o3 := h[i+1], h[i+1+stride], h[i+1+2*stride], h[i+1+3*stride]
		e := ph.col(e0&swarLo32, e1&swarLo32, e2&swarLo32, e3&swarLo32) |
			ph.col(e0>>16&swarLo32, e1>>16&swarLo32, e2>>16&swarLo32, e3>>16&swarLo32)<<16
		o := ph.col(o0&swarLo32, o1&swarLo32, o2&swarLo32, o3&swarLo32) |
			ph.col(o0>>16&swarLo32, o1>>16&swarLo32, o2>>16&swarLo32, o3>>16&swarLo32)<<16
		binary.LittleEndian.PutUint64(dst[x:], clampLanes(e, lanes16)|clampLanes(o, lanes16)<<8)
	}
}

// sharpStrips is the two-axis sharp filter over the n+3 source rows of
// n+3 samples a block reads, rows srcStride apart from src, the sample
// above and left of the block's origin (a view of the plane, or
// Scratch.window's copy); dst's rows lie stride apart. It runs 8
// columns at a time down the block, each source row's sums made once
// and kept for the next three output rows, so nothing passes through
// memory between the passes: the sums, the lanes and the rounding of
// sums then cols, written out in one loop.
func sharpStrips(hx, hy *sharpPhase, src []uint8, srcStride int, dst []uint8, stride, n int) {
	for x := 0; x < n; x += 8 {
		// e0..e3 and o0..o3: the sums of the four rows under the vertical
		// taps, the even pixels' and the odd ones'.
		var e0, e1, e2, o0, o1, o2 uint64
		for r := 0; r < n+3; r++ {
			row := src[r*srcStride+x:][:11]
			av, bv := binary.LittleEndian.Uint64(row[0:]), binary.LittleEndian.Uint64(row[1:])
			cv, dv := binary.LittleEndian.Uint64(row[2:]), binary.LittleEndian.Uint64(row[3:])
			e3 := hx.sum(av&swarLo16, bv&swarLo16, cv&swarLo16, dv&swarLo16)
			o3 := hx.sum(av>>8&swarLo16, bv>>8&swarLo16, cv>>8&swarLo16, dv>>8&swarLo16)
			if r >= 3 {
				e := hy.col(e0&swarLo32, e1&swarLo32, e2&swarLo32, e3&swarLo32) |
					hy.col(e0>>16&swarLo32, e1>>16&swarLo32, e2>>16&swarLo32, e3>>16&swarLo32)<<16
				o := hy.col(o0&swarLo32, o1&swarLo32, o2&swarLo32, o3&swarLo32) |
					hy.col(o0>>16&swarLo32, o1>>16&swarLo32, o2>>16&swarLo32, o3>>16&swarLo32)<<16
				binary.LittleEndian.PutUint64(dst[(r-3)*stride+x:], clampLanes(e, lanes16)|clampLanes(o, lanes16)<<8)
			}
			e0, e1, e2 = e1, e2, e3
			o0, o1, o2 = o1, o2, o3
		}
	}
}

// bilinearSums applies the bilinear taps (w0, w1), weights summing to 8,
// to src[x] and src[x+step] into out as sums does: w0·a + w1·b per
// 16-bit lane, at most 8·255 = 2040.
func bilinearSums(src []uint8, step int, out []uint64, w0, w1 uint64) {
	for x, i := 0, 0; i+1 < len(out); x, i = x+8, i+2 {
		out[i], out[i+1] = bilinearSumPair(src[x:], step, w0, w1)
	}
}

// bilinearSumPair is one step of bilinearSums: the even and the odd
// pixels' sums of the 8 output pixels at src.
func bilinearSumPair(src []uint8, step int, w0, w1 uint64) (e, o uint64) {
	av, bv := binary.LittleEndian.Uint64(src), binary.LittleEndian.Uint64(src[step:])
	return w0*(av&swarLo16) + w1*(bv&swarLo16), w0*(av>>8&swarLo16) + w1*(bv>>8&swarLo16)
}

// bilinearPass is a one-axis pass straight into dst, (w0·a + w1·b + 4)
// >> 3, read from src as bilinearSums reads it.
func bilinearPass(src []uint8, step int, dst []uint8, w0, w1 uint64) {
	for x := 0; x+8 <= len(dst); x += 8 {
		av, bv := binary.LittleEndian.Uint64(src[x:]), binary.LittleEndian.Uint64(src[x+step:])
		e := (w0*(av&swarLo16) + w1*(bv&swarLo16) + 4*lanes16) >> 3 & swarLo16
		o := (w0*(av>>8&swarLo16) + w1*(bv>>8&swarLo16) + 4*lanes16) >> 3 & swarLo16
		binary.LittleEndian.PutUint64(dst[x:], e|o<<8)
	}
}

// bilinearRound turns bilinearSums into the pixels of a one-axis pass,
// (h + 4) >> 3.
func bilinearRound(sums []uint64, dst []uint8) {
	for x, i := 0, 0; x+8 <= len(dst); x, i = x+8, i+2 {
		e := (sums[i] + 4*lanes16) >> 3 & swarLo16
		o := (sums[i+1] + 4*lanes16) >> 3 & swarLo16
		binary.LittleEndian.PutUint64(dst[x:], e|o<<8)
	}
}

// bilinearCols is the vertical pass over two rows of bilinearSums,
// stride words apart from h on: (v0·h0 + v1·h1 + 32) >> 6 per lane, at
// most 8·2040 + 32 = 16352.
func bilinearCols(h []uint64, stride int, dst []uint8, v0, v1 uint64) {
	for x, i := 0, 0; x+8 <= len(dst); x, i = x+8, i+2 {
		e := bilinearCol(h[i], h[i+stride], v0, v1)
		o := bilinearCol(h[i+1], h[i+1+stride], v0, v1)
		binary.LittleEndian.PutUint64(dst[x:], e|o<<8)
	}
}

// bilinearCol is one word of bilinearCols: (v0·h0 + v1·h1 + 32) >> 6 per
// lane of the words of sums h0 and h1 of two rows.
func bilinearCol(h0, h1, v0, v1 uint64) uint64 {
	return (v0*h0 + v1*h1 + 32*lanes16) >> 6 & swarLo16
}

// bilinearStrips is the two-axis bilinear filter over the n+1 source
// rows of n+1 samples a block reads, rows srcStride apart from src, the
// block's origin; dst's rows lie stride apart. As
// sharpStrips does, it runs 8 columns at a time down the block and keeps
// each source row's sums for the next output row: the same sums and
// rounding as bilinearSums then bilinearCols.
func bilinearStrips(src []uint8, srcStride int, dst []uint8, stride, n int, w0, w1, v0, v1 uint64) {
	for x := 0; x < n; x += 8 {
		s := src[x:]
		pe, po := bilinearSumPair(s[:9], 1, w0, w1)
		for y := 0; y < n; y++ {
			e, o := bilinearSumPair(s[(y+1)*srcStride:][:9], 1, w0, w1)
			binary.LittleEndian.PutUint64(dst[y*stride+x:], bilinearCol(pe, e, v0, v1)|bilinearCol(po, o, v0, v1)<<8)
			pe, po = e, o
		}
	}
}
