// Package transform implements the residual transforms of the encoder
// core's RDO engine (paper Fig. 3c): separable integer approximations of
// the DCT-II at 4×4, 8×8, 16×16 and 32×32, plus scalar quantization with a
// QP-indexed step table and zigzag coefficient scans.
//
// The H.264-class profile uses 4×4/8×8; the VP9-class profile adds
// 16×16/32×32 — one of the compression tools that "grow the search space"
// (paper §2.1).
//
// Forward and Inverse are the recursive even/odd decomposition of the
// basis, in both passes. Row k of the n-point basis is mirror-symmetric
// for even k and antisymmetric for odd k, so the odd rows need only the
// n/2 differences x[j]−x[n−1−j] and the even rows only the n/2 sums; the
// even rows restricted to the half row are again symmetric or
// antisymmetric (by the parity of k/2), and so on until two samples are
// left. A 32-point pass costs 256+64+16+4+4 = 344 multiplies where the
// matrix walk costs 1024 (16-point: 88 of 256, 8-point: 24 of 64).
// Forward is one 1-D kernel (fwd1D) applied to the rows and, the row
// pass having stored its result transposed, to the columns as contiguous
// vectors. Inverse runs the same recursion backwards (inverse): each
// non-zero coefficient adds into the partial sum of its fold level and
// the levels are unfolded at the end, so a sparse block costs what its
// non-zero coefficients cost. Scratch is sized to the transform, on the
// stack; nothing allocates.
//
// The encoder does not transform a column vector whose every output
// provably quantizes to level 0 (ForwardQuantizeScan). A level is non-zero
// iff |c| ≥ m = ceil((step − bias)/16), and a coefficient is c = (acc +
// 2^23) >> 24, so a non-zero level needs |acc| ≥ limit = m·2^24 − 2^23,
// of either sign. Each output of the column pass is acc_k = b_k·v for
// basis row b_k and the column vector v, so by Cauchy–Schwarz |acc_k| ≤
// N·‖v‖₂ with N² = max_k ‖b_k‖² taken from the integer basis at init.
// When ‖v‖₂²·N² < limit², no output of v can reach a non-zero level, and
// the column's coefficients are written as 0 instead. The test is in
// integers: ‖v‖₂² < 2^61 fits a uint64 (|v_i| < 2^28, n ≤ 32) and is
// compared with floor((limit² − 1)/N²), one 128-bit division per block.
// Nothing is rounded, so levels, the last level and every bitstream are
// those of Forward followed by QuantizeScan; only the coefficients under
// level 0 may read 0.
//
// The decomposition only regroups exact integer additions, so it is
// bit-identical to the direct matrix walk. The walks are kept as
// ForwardScalar/InverseScalar; transform_diff_test.go holds the kernels
// equal to them at the edge of the input contract and under fuzzing, and
// if a rebuilt basis ever loses one of the symmetries (every level is
// verified entry by entry at init), Forward and Inverse are the walks.
package transform

import (
	"math"
	"math/bits"
)

// Sizes supported by the transform stage.
var Sizes = []int{4, 8, 16, 32}

// MaxSize is the largest supported transform dimension; callers size
// transform-block scratch with it.
const MaxSize = 32

// cosBasis[n] is the n×n integer DCT basis scaled by 1<<basisShift,
// stored row-major with stride n (flat slices: the transforms are on the
// encode hot path and must not chase per-row pointers or hash a map in
// their inner loops). Row i, column j holds
// round(c(i) * cos((2j+1) i pi / 2n) * sqrt(2/n) * 2^basisShift)
// with c(0)=1/sqrt(2), c(i>0)=1.
const basisShift = 12

// descaleRound rounds a two-pass accumulator before it is shifted down
// by the two basis scalings.
const descaleRound = int64(1) << (2*basisShift - 1)

var cosBasis [MaxSize + 1][]int32

// basisFolds[n] records whether the integer-rounded basis has every
// symmetry the recursive kernels rely on (checkBasisFolds). The float
// arguments of mirrored entries differ, so the rounded values could in
// principle disagree by one ulp; checking the table (rather than trusting
// the math) keeps the fast path provably bit-exact.
var basisFolds [MaxSize + 1]bool

// rowNorm2[n] is N² = max_k Σ_j basis[k][j]², the largest squared norm of
// a row of the n-point basis (< 2^29): no output of a 1-D pass over v
// exceeds N·‖v‖₂ in magnitude.
var rowNorm2 [MaxSize + 1]uint64

func init() {
	for _, n := range Sizes {
		cosBasis[n] = buildBasis(n)
		basisFolds[n] = checkBasisFolds(cosBasis[n], n)
		for k := 0; k < n; k++ {
			var s uint64
			for _, b := range cosBasis[n][k*n : k*n+n] {
				s += uint64(int64(b) * int64(b))
			}
			rowNorm2[n] = max(rowNorm2[n], s)
		}
	}
}

func buildBasis(n int) []int32 {
	b := make([]int32, n*n)
	for i := 0; i < n; i++ {
		ci := math.Sqrt(2.0 / float64(n))
		if i == 0 {
			ci *= math.Sqrt(0.5)
		}
		for j := 0; j < n; j++ {
			v := ci * math.Cos(float64(2*j+1)*float64(i)*math.Pi/float64(2*n))
			b[i*n+j] = int32(math.Round(v * (1 << basisShift)))
		}
	}
	return b
}

// checkBasisFolds verifies the symmetry each fold level uses: at vector
// length m = n, n/2, … 2, the rows still to be produced are the multiples
// k of step = n/m, and row k restricted to its first m entries must
// mirror about m/2 with sign + when k/step is even and − when it is odd.
func checkBasisFolds(b []int32, n int) bool {
	for m, step := n, 1; m >= 2; m, step = m/2, step*2 {
		for k := 0; k < n; k += step {
			sign := int32(1 - 2*(k/step%2))
			for j := 0; j < m/2; j++ {
				if b[k*n+j] != sign*b[k*n+m-1-j] {
					return false
				}
			}
		}
	}
	return true
}

// Forward applies the 2-D forward transform to an n×n residual block
// (row-major int32, values in roughly [-255, 255], |v| < 2^11 required)
// in place, producing coefficients at unit scale (the basis scaling is
// fully removed, so quantization sees natural-magnitude coefficients).
// Scratch lives on the stack, sized to n; the function allocates nothing.
// Bit-exact with ForwardScalar.
func Forward(block []int32, n int) { forwardBounded(block, n, 0) }

// forwardBounded is Forward, except that a column vector whose every
// output has a two-pass accumulator provably under limit in magnitude is
// not transformed and its coefficients are written as 0 (see the package
// doc). limit ≤ 0 never skips.
func forwardBounded(block []int32, n int, limit int64) {
	switch {
	case !basisFolds[n]:
		ForwardScalar(block, n)
	case n == 4:
		var tmp [4 * 4]int32
		forward(block, n, tmp[:], limit)
	case n == 8:
		var tmp [8 * 8]int32
		forward(block, n, tmp[:], limit)
	case n == 16:
		var tmp [16 * 16]int32
		forward(block, n, tmp[:], limit)
	default:
		var tmp [MaxSize * MaxSize]int32
		forward(block, n, tmp[:], limit)
	}
}

// forward runs the row pass into tmp and the column pass back into block,
// skipping the column vectors that limit proves zero.
//
// Row pass, tmp[k][i] = Σ_j block[i][j]·basis[k][j], in int32: inputs are
// under 2^11 and basis entries under 2^12; a sum folded f times is under
// f·2^11 and meets a dot product of n/f terms, so every regrouped sum
// stays under n·2^11·2^12 ≤ 2^28. Column pass, out[k][l] =
// Σ_i basis[k][i]·tmp[l][i] descaled by 2·basisShift, in int64: its
// inputs are already up to 2^28 and their folded sums reach 2^33.
func forward(block []int32, n int, tmp []int32, limit int64) {
	basis := cosBasis[n]
	var f32 [MaxSize]int32
	for i := 0; i < n; i++ {
		fwd1D(block[i*n:i*n+n], basis, f32[:n/2], f32[n/2:n], tmp[i:], 0, 0)
	}
	skipBelow, bounded := columnSkipBound(limit, n)
	var f64 [MaxSize]int64
	for l := 0; l < n; l++ {
		v := tmp[l*n : l*n+n]
		if bounded {
			var norm2 uint64
			for _, x := range v {
				norm2 += uint64(int64(x) * int64(x))
			}
			if norm2 <= skipBelow {
				for k := l; k < n*n; k += n {
					block[k] = 0
				}
				continue
			}
		}
		fwd1D(v, basis, f64[:n/2], f64[n/2:n], block[l:], descaleRound, 2*basisShift)
	}
}

// columnSkipBound returns floor((limit² − 1)/N²), the largest ‖v‖₂² of a
// column vector v with ‖v‖₂²·N² < limit², and false when limit ≤ 0.
// zeroLimit's limits are under 2^34, so the quotient fits in 64 bits.
func columnSkipBound(limit int64, n int) (uint64, bool) {
	if limit <= 0 {
		return 0, false
	}
	hi, lo := bits.Mul64(uint64(limit), uint64(limit))
	lo, borrow := bits.Sub64(lo, 1, 0)
	q, _ := bits.Div64(hi-borrow, lo, rowNorm2[n])
	return q, true
}

// fwd1D transforms the vector src (length n = 2·len(e)) and stores
// output k, rounded and shifted, at dst[k·n]. e and o are scratch for the
// folded sums and differences: the differences of each fold are dotted
// with the leading entries of the rows that are odd multiples of the
// fold's step, the sums are folded again, and the last two sums meet rows
// 0 and n/2. Rows are taken two at a time so each sample is loaded once
// for two multiplies, and the dot products stay in registers.
func fwd1D[T int32 | int64](src, basis []int32, e, o []T, dst []int32, round T, shift uint) {
	h := len(e)
	n := 2 * h
	src = src[:n]
	o = o[:h]
	for j := range e {
		a, b := T(src[j]), T(src[n-1-j])
		e[j], o[j] = a+b, a-b
	}
	v, first, step := o, 1, 1
	for {
		for k := first; k < n; k += 4 * step {
			k2 := k + 2*step
			r0 := basis[k*n:][:len(v)]
			r1 := basis[k2*n:][:len(v)]
			var acc0, acc1 T
			j := 0
			for ; j < len(v)-3; j += 4 {
				a0, a1, a2, a3 := v[j], v[j+1], v[j+2], v[j+3]
				acc0 += a0*T(r0[j]) + a1*T(r0[j+1]) + a2*T(r0[j+2]) + a3*T(r0[j+3])
				acc1 += a0*T(r1[j]) + a1*T(r1[j+1]) + a2*T(r1[j+2]) + a3*T(r1[j+3])
			}
			for ; j < len(v); j++ {
				acc0 += v[j] * T(r0[j])
				acc1 += v[j] * T(r1[j])
			}
			dst[k*n] = int32((acc0 + round) >> shift)
			dst[k2*n] = int32((acc1 + round) >> shift)
		}
		switch {
		case first == 0:
			return
		case h == 2: // step is n/4: the pair is rows 0 and n/2
			v, first = e[:2], 0
			continue
		}
		h /= 2
		step *= 2
		for j := 0; j < h; j++ {
			a, b := e[j], e[2*h-1-j]
			e[j], o[j] = a+b, a-b
		}
		v, first = o[:h], step
	}
}

// ForwardScalar is the direct matrix-walk forward transform, retained as
// the differential-test reference for Forward (and as the fallback if the
// basis loses its mirror symmetry).
func ForwardScalar(block []int32, n int) {
	basis := cosBasis[n]
	var tmpArr [MaxSize * MaxSize]int64
	tmp := tmpArr[:n*n]
	// rows: tmp = block * basisT  (tmp[i][k] = sum_j block[i][j]*basis[k][j])
	for i := 0; i < n; i++ {
		row := block[i*n : i*n+n]
		for k := 0; k < n; k++ {
			brow := basis[k*n : k*n+n]
			var acc int64
			for j := 0; j < n; j++ {
				acc += int64(row[j]) * int64(brow[j])
			}
			tmp[i*n+k] = acc
		}
	}
	// cols: out[k][l] = sum_i basis[k][i] * tmp[i][l], then descale
	// 2*basisShift. Accumulating whole output rows keeps the inner loop on
	// contiguous tmp rows; integer addition is associative, so the
	// reordering is bit-exact with the direct column walk.
	var accArr [MaxSize]int64
	for k := 0; k < n; k++ {
		acc := accArr[:n]
		for l := range acc {
			acc[l] = 0
		}
		brow := basis[k*n : k*n+n]
		for i := 0; i < n; i++ {
			b := int64(brow[i])
			trow := tmp[i*n : i*n+n]
			for l := 0; l < n; l++ {
				acc[l] += b * trow[l]
			}
		}
		for l := 0; l < n; l++ {
			block[k*n+l] = int32((acc[l] + descaleRound) >> (2 * basisShift))
		}
	}
}

// Inverse applies the 2-D inverse transform in place, reconstructing the
// residual from unit-scale coefficients. Quantized blocks are sparse, and
// the work is proportional to what is not zero: a zero coefficient costs
// one load, a zero row takes no part in the column pass, and an all-zero
// block returns after the row scan. Bit-exact with InverseScalar.
func Inverse(block []int32, n int) {
	switch {
	case !basisFolds[n]:
		InverseScalar(block, n)
	case n == 4:
		var tmp, acc [4 * 4]int64
		inverse(block, n, tmp[:], acc[:])
	case n == 8:
		var tmp, acc [8 * 8]int64
		inverse(block, n, tmp[:], acc[:])
	case n == 16:
		var tmp, acc [16 * 16]int64
		inverse(block, n, tmp[:], acc[:])
	default:
		var tmp, acc [MaxSize * MaxSize]int64
		inverse(block, n, tmp[:], acc[:])
	}
}

// inverse is the forward recursion run backwards, in both passes. A term
// with frequency index k belongs to one fold level: its basis row enters
// only through its leading m entries — m = 1 for k = 0, else n/2 shifted
// down by the trailing zeros of k — as a contribution to that level's
// odd part o (for k = 0, to the one-entry even part), and the levels are
// then unfolded from the shortest up, x[j] = e[j]+o[j] and x[2m−1−j] =
// e[j]−o[j] (unfold). Level m keeps o[j] at index 2m−1−j, where the
// unfolding wants the difference, so the recursion needs no scratch
// beyond the vector it builds. Both passes and the zeroed scratch are
// int64: arithmetic modulo 2^64 is a ring, so even on coefficients
// outside any contract (a hostile bitstream) the regrouped sums equal the
// scalar walk's.
func inverse(block []int32, n int, tmp, acc []int64) {
	basis := cosBasis[n]
	// Row pass: tmp[k][·] = Σ_l block[k][l]·basis[l][·], live rows only.
	var liveRows [MaxSize]bool
	live := false
	for k := 0; k < n; k++ {
		x := tmp[k*n : k*n+n]
		for l, c := range block[k*n : k*n+n] {
			if c == 0 {
				continue
			}
			liveRows[k] = true
			m, at := foldLevel(l, n)
			for j, b := range basis[l*n : l*n+m] {
				x[at-j] += int64(c) * int64(b)
			}
		}
		if liveRows[k] {
			live = true
			unfold(x, n, 1)
		}
	}
	if !live {
		return
	}
	// Column pass: out[·][j] = Σ_k basis[k][·]·tmp[k][j] for all j at
	// once — the vector being built is a column of rows of acc.
	for k := 0; k < n; k++ {
		if !liveRows[k] {
			continue
		}
		t := tmp[k*n : k*n+n]
		m, at := foldLevel(k, n)
		for i, b := range basis[k*n : k*n+m] {
			row := acc[(at-i)*n:][:len(t)]
			for j, v := range t {
				row[j] += int64(b) * v
			}
		}
	}
	unfold(acc, n, n)
	for i, v := range acc {
		block[i] = int32((v + descaleRound) >> (2 * basisShift))
	}
}

// foldLevel returns, for frequency index k of an n-point transform, the
// number m of leading basis-row entries its fold level uses and the index
// the first of them adds into; entry j adds into at−j.
func foldLevel(k, n int) (m, at int) {
	if k == 0 {
		return 1, 0
	}
	m = n / 2 >> bits.TrailingZeros(uint(k))
	return m, 2*m - 1
}

// unfold expands the per-level sums of an n-point vector, whose elements
// are w consecutive values each (w = 1: a vector; w = n: the rows of a
// block), into the vector itself.
func unfold(x []int64, n, w int) {
	for m := 1; m < n; m *= 2 {
		for j := 0; j < m; j++ {
			e := x[j*w:][:w]
			o := x[(2*m-1-j)*w:][:w]
			for i := range e {
				ei, oi := e[i], o[i]
				e[i], o[i] = ei+oi, ei-oi
			}
		}
	}
}

// InverseScalar is the direct matrix-walk inverse transform, retained as
// the differential-test reference for Inverse (and as the fallback if the
// basis loses its mirror symmetry).
func InverseScalar(block []int32, n int) {
	basis := cosBasis[n]
	var tmpArr [MaxSize * MaxSize]int64
	tmp := tmpArr[:n*n]
	var rowLive [MaxSize]bool
	// rows: tmp[k][j] = sum_l block[k][l] * basis[l][j]
	var accArr [MaxSize]int64
	for k := 0; k < n; k++ {
		crow := block[k*n : k*n+n]
		acc := accArr[:n]
		for j := range acc {
			acc[j] = 0
		}
		live := false
		for l := 0; l < n; l++ {
			c := int64(crow[l])
			if c == 0 {
				continue
			}
			live = true
			brow := basis[l*n : l*n+n]
			for j := 0; j < n; j++ {
				acc[j] += c * int64(brow[j])
			}
		}
		rowLive[k] = live
		copy(tmp[k*n:k*n+n], acc)
	}
	// cols: out[i][j] = sum_k basis[k][i] * tmp[k][j]
	for i := 0; i < n; i++ {
		acc := accArr[:n]
		for j := range acc {
			acc[j] = 0
		}
		for k := 0; k < n; k++ {
			if !rowLive[k] {
				continue
			}
			b := int64(basis[k*n+i])
			trow := tmp[k*n : k*n+n]
			for j := 0; j < n; j++ {
				acc[j] += b * trow[j]
			}
		}
		for j := 0; j < n; j++ {
			block[i*n+j] = int32((acc[j] + descaleRound) >> (2 * basisShift))
		}
	}
}
