// Package transform implements the residual transforms of the encoder
// core's RDO engine (paper Fig. 3c): separable integer approximations of
// the DCT-II at 4×4, 8×8, 16×16 and 32×32, plus scalar quantization with a
// QP-indexed step table and zigzag coefficient scans.
//
// The H.264-class profile uses 4×4/8×8; the VP9-class profile adds
// 16×16/32×32 — one of the compression tools that "grow the search space"
// (paper §2.1).
//
// Forward and Reconstruct's inverse transform are the recursive even/odd
// decomposition of the basis, in both passes. Row k of the n-point basis
// is mirror-symmetric for even k and antisymmetric for odd k, so the odd
// rows need only the n/2 differences x[j]−x[n−1−j] and the even rows only
// the n/2 sums; the even rows restricted to the half row are again
// symmetric or antisymmetric (by the parity of k/2), and so on until one
// sum is left. A 32-point pass costs 256+64+16+4+1+1 = 342 multiplies
// where the matrix walk costs 1024 (16-point: 86 of 256, 8-point: 22 of
// 64). Forward folds a vector in place into its levels (fold) and dots
// each level's differences with the leading entries of its rows (dots),
// in both passes: the row pass stores its result transposed, so the
// column pass reads contiguous vectors. Reconstruct runs the same
// recursion backwards (inverseLevels): each non-zero level adds into the
// partial sum of its fold level and the levels are unfolded at the end,
// and only the rows up to the anti-diagonal of the last level are walked,
// so a sparse block costs about what its non-zero levels cost. Scratch is
// sized to the transform, on the stack; nothing allocates.
//
// The row pass carries two rows in every multiply. Rows i and i+1 ride in
// one int64 as a + b·2^32; every step of the fold and of the dot products
// is linear with integer coefficients, so each accumulator is exactly
// outA + outB·2^32. Row outputs and every partial sum on the way to them
// are under 2^28 (forward), so nothing leaves int64, outA is the low 32
// bits read as signed, and outB = (acc − outA) >> 32 exactly. The column
// pass, whose sums reach 2^45, takes one vector per multiply.
//
// The encoder does not transform a column vector whose every output
// provably quantizes to level 0 (ForwardQuantizeScan). A level is non-zero
// iff |c| ≥ m = ceil((step − bias)/16), and a coefficient is c = (acc +
// 2^23) >> 24, so a non-zero level needs |acc| ≥ limit = m·2^24 − 2^23,
// of either sign. Each output of the column pass is acc_k = b_k·v for
// basis row b_k and the column vector v, so by Cauchy–Schwarz |acc_k| ≤
// N·‖v‖₂ with N² = max_k ‖b_k‖² taken from the integer basis at init.
// When ‖v‖₂²·N² < limit², no output of v can reach a non-zero level, and
// the column is not transformed: ForwardQuantizeScan quantizes only the
// columns that were. The test is in integers: ‖v‖₂² < 2^61 fits a uint64
// (|v_i| < 2^28, n ≤ 32) and is compared with floor((limit² − 1)/N²), one
// 128-bit division per block. Nothing is rounded, so levels, the last
// level and every bitstream are those of Forward followed by
// QuantizeScan; only the coefficients under level 0 may read 0.
//
// Most of those columns are never produced. Column vector v_k holds
// output k of every row, so Σ_k ‖v_k‖₂² = Σ_i ‖B·x_i‖₂² over the rows x_i
// of the block X, which is at most gram·‖X‖₂²: gram = max_k Σ_l |b_k·b_l|,
// computed at init from the integer basis, is the Gershgorin bound on
// λ_max(B·Bᵀ), and holds however the basis's rounding errors line up
// (the largest row norm N² does not). At n ≥ 16 the row pass first
// produces the lower half of the frequencies, k < n/2; every upper column
// then holds at most gram·‖X‖₂² − Σ_{k<n/2} ‖v_k‖₂², and when that is
// within one column's bound, each would pass the column test, so the
// upper half of the row pass is not computed. Otherwise it is, from the
// folds kept per row pair, and nothing is wasted. When gram·‖X‖₂² itself
// is within the bound, no row is transformed. In integers again:
// ‖X‖₂² < 2^32 and gram < 2^25. Below 16 points ‖X‖₂² is not taken: the
// row pass costs about what the sum does.
//
// The decomposition only regroups exact integer additions, so it is
// bit-identical to the direct matrix walk. The walks are kept as
// ForwardScalar/InverseScalar; transform_diff_test.go holds the kernels
// equal to them at the edge of the input contract and under fuzzing, and
// if a rebuilt basis ever loses one of the symmetries (every level is
// verified entry by entry at init), Forward and Reconstruct are the
// walks.
package transform

import (
	"math"
	"math/bits"

	"openvcu/internal/video"
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

// gram[n] is the Gershgorin bound on λ_max(B·Bᵀ) for the n-point integer
// basis B, max_k Σ_l |b_k·b_l| (about 2^24): ‖Bx‖₂² ≤ gram[n]·‖x‖₂² for
// every x, so no transform of a vector holds more than gram[n] times its
// energy, however its rounding errors line up.
var gram [MaxSize + 1]uint64

// fwdRows[n] holds, at row k, the leading m entries of basis row k in
// reverse order, m the length of k's fold level (foldLevel): the entries
// the forward pass dots with that level's mirrored differences (dots).
var fwdRows [MaxSize + 1][]int32

func init() {
	for _, n := range Sizes {
		b := buildBasis(n)
		cosBasis[n], fwdRows[n] = b, levelRows(b, n)
		basisFolds[n] = checkBasisFolds(b, n)
		for k := 0; k < n; k++ {
			var s uint64
			for l := 0; l < n; l++ {
				var g int64
				for j := 0; j < n; j++ {
					g += int64(b[k*n+j]) * int64(b[l*n+j])
				}
				if l == k {
					rowNorm2[n] = max(rowNorm2[n], uint64(g))
				}
				s += uint64(max(g, -g))
			}
			gram[n] = max(gram[n], s)
		}
	}
}

// levelRows builds fwdRows' table for the n-point basis b.
func levelRows(b []int32, n int) []int32 {
	r := make([]int32, n*n)
	for k := 0; k < n; k++ {
		m, _ := foldLevel(k, n)
		for j := 0; j < m; j++ {
			r[k*n+j] = b[k*n+m-1-j]
		}
	}
	return r
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
// not transformed and its coefficients are left as scratch (see the
// package doc). It returns the mask of the columns it transformed, bit l
// for column l; limit ≤ 0 never skips, and the mask is then every column.
func forwardBounded(block []int32, n int, limit int64) (live uint32) {
	switch {
	case !basisFolds[n]:
		ForwardScalar(block, n)
		return 1<<n - 1
	case n == 4:
		var tmp [4 * 4]int32
		var lv [4 * 4 / 2]int64
		return forward(block, n, tmp[:], lv[:], limit)
	case n == 8:
		var tmp [8 * 8]int32
		var lv [8 * 8 / 2]int64
		return forward(block, n, tmp[:], lv[:], limit)
	case n == 16:
		var tmp [16 * 16]int32
		var lv [16 * 16 / 2]int64
		return forward(block, n, tmp[:], lv[:], limit)
	default:
		var tmp [MaxSize * MaxSize]int32
		var lv [MaxSize * MaxSize / 2]int64
		return forward(block, n, tmp[:], lv[:], limit)
	}
}

// forward runs the row pass into tmp and the column pass back into block,
// skipping the column vectors that limit proves zero, and returns the
// mask of the columns it transformed. lv holds the fold levels of each
// row pair (n values per pair), kept for the upper half of the row pass.
//
// Row pass, tmp[k][i] = Σ_j block[i][j]·basis[k][j]: inputs are under
// 2^11 and basis entries under 2^12; a sum folded f times is under
// f·2^11 and meets a dot product of n/f terms, so every regrouped sum
// stays under n·2^11·2^12 ≤ 2^28, and rows i and i+1 run as one int64
// (rowPair). Column pass, out[k][l] = Σ_i basis[k][i]·tmp[l][i] descaled
// by 2·basisShift: its inputs are already up to 2^28 and their folded
// sums reach 2^33. With a bound at n ≥ 16, the upper half of the row pass
// runs only when the energy left for it could reach one column's bound
// (the package doc).
func forward(block []int32, n int, tmp []int32, lv []int64, limit int64) (live uint32) {
	skipBelow, bounded := columnSkipBound(limit, n)
	var energy uint64 // what the column vectors together can hold
	cols := n
	if bounded && n >= 16 {
		if energy = energyBound(block, n); energy <= skipBelow {
			return 0
		}
		cols = n / 2
	}
	for i := 0; i < n; i += 2 {
		x := lv[i/2*n:][:n]
		packRows(block[i*n:][:n], block[(i+1)*n:][:n], x)
		fold(x)
		rowPair(x, tmp, i, 0, cols)
	}
	var norm2 [MaxSize]uint64
	if bounded {
		var lower uint64
		for l := 0; l < cols; l++ {
			norm2[l] = sumSquares(tmp[l*n : l*n+n])
			lower += norm2[l]
		}
		if cols < n && energy-lower > skipBelow {
			for i := 0; i < n; i += 2 {
				rowPair(lv[i/2*n:][:n], tmp, i, cols, n)
			}
			for l := cols; l < n; l++ {
				norm2[l] = sumSquares(tmp[l*n : l*n+n])
			}
			cols = n
		}
	}
	rows := fwdRows[n]
	var x, out [MaxSize]int64
	for l := 0; l < cols; l++ {
		if bounded && norm2[l] <= skipBelow {
			continue
		}
		live |= 1 << l
		for i, c := range tmp[l*n : l*n+n] {
			x[i] = int64(c)
		}
		fold(x[:n])
		dots(x[:n], rows, 0, n, &out)
		for k, acc := range out[:n] {
			block[k*n+l] = int32((acc + descaleRound) >> (2 * basisShift))
		}
	}
	return live
}

// packRows packs rows a and b into x as a + b·2^32, to be folded and
// transformed as one (the package doc).
func packRows(a, b []int32, x []int64) {
	x, b = x[:len(a)], b[:len(a)]
	for j, v := range a {
		x[j] = int64(v) + int64(b[j])<<32
	}
}

// rowPair computes the frequencies k0 ≤ k < k1 of the row pair i, i+1
// from the fold levels x of its packed rows, and stores the two rows'
// outputs apart, transposed, at tmp[k][i] and tmp[k][i+1].
func rowPair(x []int64, tmp []int32, i, k0, k1 int) {
	n := len(x)
	var out [MaxSize]int64
	dots(x, fwdRows[n], k0, k1, &out)
	for k := k0; k < k1; k++ {
		lo := int32(out[k])
		tmp[k*n+i] = lo
		tmp[k*n+i+1] = int32((out[k] - int64(lo)) >> 32)
	}
}

// fold replaces the vector x (length n) by its fold levels: each level
// splits the leading 2m values into their m mirrored sums, kept in front
// for the next level, and m differences, stored mirrored at x[m:2m], for
// m = n/2 down to 1. x[0] is then the full sum.
func fold(x []int64) {
	for m := len(x) / 2; m >= 1; m /= 2 {
		for j := 0; j < m; j++ {
			a, b := x[j], x[2*m-1-j]
			x[j], x[2*m-1-j] = a+b, a-b
		}
	}
}

// dots computes the outputs k0 ≤ k < k1 of a 1-D transform from the fold
// levels x of its input vector into out[k]. k0 and k1 are 0, n/2 or n. Row
// k is the dot product of its level's differences x[m:2m] (m = k's
// foldLevel) with rows[k·n:], its leading m basis entries reversed to
// meet their mirrored storage; row 0 is x[0] times a constant. Rows are
// taken two at a time, so each difference is loaded once for two
// multiplies and both sums stay in registers.
func dots(x []int64, rows []int32, k0, k1 int, out *[MaxSize]int64) {
	n := len(x)
	if k0 == 0 {
		out[0] = x[0] * int64(rows[0])
	}
	for m := 1; m < n; m *= 2 {
		o := x[m : 2*m]
		step := n / (2 * m)
		t0, t1 := 0, m // the rows of level m: k = (2t+1)·step
		if k0 > 0 {
			t0 = m / 2
		}
		if k1 < n {
			t1 = m / 2
		}
		for t := t0; t < t1; t += 2 {
			k := step * (2*t + 1)
			r0 := rows[k*n:][:len(o)]
			if t+1 == t1 { // one row left: m ≤ 2
				var acc int64
				for j, v := range o {
					acc += v * int64(r0[j])
				}
				out[k] = acc
				continue
			}
			k2 := k + 2*step
			r1 := rows[k2*n:][:len(o)]
			var acc0, acc1 int64
			j := 0
			for ; j < len(o)-3; j += 4 {
				a0, a1, a2, a3 := o[j], o[j+1], o[j+2], o[j+3]
				acc0 += a0*int64(r0[j]) + a1*int64(r0[j+1]) + a2*int64(r0[j+2]) + a3*int64(r0[j+3])
				acc1 += a0*int64(r1[j]) + a1*int64(r1[j+1]) + a2*int64(r1[j+2]) + a3*int64(r1[j+3])
			}
			for ; j < len(o); j++ {
				acc0 += o[j] * int64(r0[j])
				acc1 += o[j] * int64(r1[j])
			}
			out[k], out[k2] = acc0, acc1
		}
	}
}

// energyBound returns gram[n]·‖X‖₂² for the n×n block X, a bound on
// Σ_k ‖v_k‖₂² over the column vectors v_k its row pass produces: that sum
// is Σ_i ‖B·x_i‖₂² over its rows x_i. Under 2^57 for blocks of the input
// contract.
func energyBound(block []int32, n int) uint64 { return gram[n] * sumSquares(block[:n*n]) }

// sumSquares returns ‖v‖₂². Every caller's vector has entries under 2^28
// and a squared norm under 2^61.
func sumSquares(v []int32) uint64 {
	var s uint64
	for _, x := range v {
		s += uint64(int64(x) * int64(x))
	}
	return s
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

// Reconstruct is the inverse half of a transform block, the one
// reconstruction the encoder's trials, its commits and the decoder share:
// it dequantizes levels (scan order; none past scan index last is read),
// inverse transforms them and writes the prediction plus the residual,
// clamped to 8 bits, into dst. pred and dst are n×n blocks of strides
// predStride and dstStride. With last −1 the residual is zero and dst is
// the prediction; with last 0 only the DC level is set and the residual
// is one value. Otherwise the zigzag scan walks anti-diagonals, so every
// level up to last lies on or above the anti-diagonal of last's position,
// and only those are read (reconstruct). Scratch lives on the stack,
// sized to n; nothing allocates. Bit-identical to dequantizing into a
// block, InverseScalar, and clamping prediction plus residual.
func Reconstruct(levels []int32, last, n, qp int, pred []uint8, predStride int, dst []uint8, dstStride int) {
	switch {
	case last < 0:
		for r := 0; r < n; r++ {
			copy(dst[r*dstStride:][:n], pred[r*predStride:][:n])
		}
	case last == 0:
		dc := inverseDC(levels[0], n, qp)
		for r := 0; r < n; r++ {
			out, p := dst[r*dstStride:][:n], pred[r*predStride:][:n]
			for c := range out {
				out[c] = video.ClampU8(int32(p[c]) + dc)
			}
		}
	case !basisFolds[n]:
		reconstructScalar(levels, last, n, qp, pred, predStride, dst, dstStride)
	case n == 4:
		var acc [4 * 4]int64
		reconstruct(levels, last, n, qp, acc[:], pred, predStride, dst, dstStride)
	case n == 8:
		var acc [8 * 8]int64
		reconstruct(levels, last, n, qp, acc[:], pred, predStride, dst, dstStride)
	case n == 16:
		var acc [16 * 16]int64
		reconstruct(levels, last, n, qp, acc[:], pred, predStride, dst, dstStride)
	default:
		var acc [MaxSize * MaxSize]int64
		reconstruct(levels, last, n, qp, acc[:], pred, predStride, dst, dstStride)
	}
}

// inverseDC returns the value every sample of an n×n block takes when the
// block whose only non-zero level is the DC level l is dequantized and
// inverse transformed: row 0 of the basis is one constant, so the two
// passes collapse to one multiply.
func inverseDC(l int32, n, qp int) int32 {
	b := int64(cosBasis[n][0])
	return int32((b*b*int64(l*QStep(qp)/16) + descaleRound) >> (2 * basisShift))
}

// reconstruct is Reconstruct's full path: inverseLevels into acc (n×n,
// zero), then the last unfold level, row j with row n−1−j, each output
// descaled, added to the prediction and clamped as it is made.
func reconstruct(levels []int32, last, n, qp int, acc []int64, pred []uint8, predStride int, dst []uint8, dstStride int) {
	inverseLevels(levels, last, n, qp, acc)
	for j := 0; j < n/2; j++ {
		e := acc[j*n:][:n]
		o := acc[(n-1-j)*n:][:len(e)]
		top, pt := dst[j*dstStride:][:len(e)], pred[j*predStride:][:len(e)]
		bot, pb := dst[(n-1-j)*dstStride:][:len(e)], pred[(n-1-j)*predStride:][:len(e)]
		for c, v := range e {
			top[c] = video.ClampU8(int32(pt[c]) + int32((v+o[c]+descaleRound)>>(2*basisShift)))
			bot[c] = video.ClampU8(int32(pb[c]) + int32((v-o[c]+descaleRound)>>(2*basisShift)))
		}
	}
}

// inverseLevels adds the two-pass sums of the inverse transform of the
// dequantized levels[:last+1] into acc (n×n), before the descale, all but
// the last level of the column pass unfolded. The coefficient block is
// zero below diag, the anti-diagonal of last's position, so the row pass
// walks rows 0..diag only, each over its columns on or above diag,
// reading each level at its scan index. It is the forward recursion run
// backwards, in both passes: a term with frequency index k belongs to one
// fold level, its basis row enters only through its leading m entries
// (m = 1 for k = 0, else n/2 shifted down by the trailing zeros of k) as
// a contribution to that level's odd part (for k = 0, to the one-entry
// even part), and the levels are then unfolded from the shortest up,
// x[j] = e[j]+o[j] and x[2m−1−j] = e[j]−o[j] (unfold). Level m keeps
// o[j] at index 2m−1−j, where the unfolding wants the difference, so the
// recursion needs no scratch beyond the vector it builds. A row with a
// level is transformed and unfolded at once and added into the column
// pass, whose vectors are the rows of acc, unfolded together at the end
// but for the last level, which reconstruct unfolds as it writes its
// outputs. Everything is int64: arithmetic modulo 2^64 is a ring, so even
// on levels outside any contract (a hostile bitstream) the regrouped sums
// equal the scalar walk's, as the dequantize wraps in int32 as
// Dequantize's does.
func inverseLevels(levels []int32, last, n, qp int, acc []int64) {
	basis, at, step := cosBasis[n], scanIndex[n], QStep(qp)
	pos := zigzagScans[n][last]
	diag := pos/n + pos%n
	for k := 0; k < min(diag+1, n); k++ {
		var x [MaxSize]int64
		live := false
		for l := 0; l < min(diag-k+1, n); l++ {
			i := int(at[k*n+l])
			if i > last || levels[i] == 0 {
				continue
			}
			live = true
			c := int64(levels[i] * step / 16)
			m, a := foldLevel(l, n)
			for j, b := range basis[l*n : l*n+m] {
				x[a-j] += c * int64(b)
			}
		}
		if !live {
			continue
		}
		xs := x[:n]
		unfold(xs)
		m, a := foldLevel(k, n)
		for i, b := range basis[k*n : k*n+m] {
			row := acc[(a-i)*n:][:len(xs)]
			for j, v := range xs {
				row[j] += int64(b) * v
			}
		}
	}
	unfoldRows(acc, n, n/2)
}

// reconstructScalar is Reconstruct's full path on the scalar walk, for a
// basis that lost a symmetry the recursion needs: the levels dequantized
// into a block, InverseScalar, the prediction added and the clamp.
func reconstructScalar(levels []int32, last, n, qp int, pred []uint8, predStride int, dst []uint8, dstStride int) {
	var blk [MaxSize * MaxSize]int32
	step, scan := QStep(qp), zigzagScans[n]
	for i, l := range levels[:last+1] {
		blk[scan[i]] = l * step / 16
	}
	InverseScalar(blk[:n*n], n)
	for r := 0; r < n; r++ {
		out, p := dst[r*dstStride:][:n], pred[r*predStride:][:n]
		for c, v := range blk[r*n:][:n] {
			out[c] = video.ClampU8(int32(p[c]) + v)
		}
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

// unfold expands the per-level sums of a vector into the vector itself,
// undoing fold.
func unfold(x []int64) {
	for m := 1; m < len(x); m *= 2 {
		for j := 0; j < m; j++ {
			e, o := x[j], x[2*m-1-j]
			x[j], x[2*m-1-j] = e+o, e-o
		}
	}
}

// unfoldRows is unfold on the n-point vector whose elements are the rows
// of the n×n block x, over the levels shorter than top.
func unfoldRows(x []int64, n, top int) {
	for m := 1; m < top; m *= 2 {
		for j := 0; j < m; j++ {
			e := x[j*n:][:n]
			o := x[(2*m-1-j)*n:][:n]
			for i := range e {
				ei, oi := e[i], o[i]
				e[i], o[i] = ei+oi, ei-oi
			}
		}
	}
}

// InverseScalar is the direct matrix-walk inverse transform, retained as
// the differential-test reference for Reconstruct (and as its fallback if
// the basis loses its mirror symmetry).
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
