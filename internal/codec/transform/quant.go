package transform

import (
	"math"
	"math/bits"
)

// MaxQP is the largest quantizer index, matching VP9's 8-bit QP range.
const MaxQP = 63

// qStepTable[qp] is the quantizer step size in 1/16-pel coefficient units
// (Q4 fixed point). Steps grow exponentially, doubling every 6 QP like
// H.264/VP9, spanning roughly 0.6 .. 600.
var qStepTable = buildQSteps()

func buildQSteps() [MaxQP + 1]int32 {
	var t [MaxQP + 1]int32
	for qp := 0; qp <= MaxQP; qp++ {
		step := 0.625 * math.Pow(2, float64(qp)/6.0)
		v := int32(math.Round(step * 16))
		if v < 8 {
			v = 8 // never below 0.5
		}
		t[qp] = v
	}
	return t
}

// QStep returns the quantizer step (Q4) for a QP.
func QStep(qp int) int32 {
	if qp < 0 {
		qp = 0
	}
	if qp > MaxQP {
		qp = MaxQP
	}
	return qStepTable[qp]
}

// QStepFloat returns the step size as a float (for rate-control math).
func QStepFloat(qp int) float64 { return float64(QStep(qp)) / 16.0 }

// MaxAbsCoeff bounds |coefficient| accepted by Quantize's reciprocal
// fast path. Forward outputs are bounded by n·255 < 2^13 at 32×32, so
// 2^17 leaves a 16× margin; the exactness proof below needs
// 16·MaxAbsCoeff + step < 2^35/step_max ≈ 2^21.2, which holds with room.
const MaxAbsCoeff = 1 << 17

// qRecipShift/qRecipTable implement division by the quantizer step as a
// multiply-shift (Granlund–Montgomery round-up reciprocal):
// M = ceil(2^35/step) = (2^35+e)/step with 0 < e ≤ step, and
// floor(x·M/2^35) == floor(x/step) exactly for all 0 ≤ x < 2^35/e.
// Since e ≤ step ≤ step_max = 14480, the identity holds for every
// x < 2^35/14480 ≈ 2.37M, and Quantize's domain (x ≤ 16·MaxAbsCoeff +
// bias ≤ 2^21.1) sits inside it for every QP. The quantize loop runs
// once per coefficient of every RDO candidate — turning the hardware
// divide into a multiply is the same trade the VCU's fixed-function
// quantizer makes.
const qRecipShift = 35

var qRecipTable = buildQRecips()

func buildQRecips() [MaxQP + 1]uint64 {
	var t [MaxQP + 1]uint64
	for qp := 0; qp <= MaxQP; qp++ {
		d := uint64(qStepTable[qp])
		t[qp] = (uint64(1)<<qRecipShift + d - 1) / d
	}
	return t
}

// Quantize converts coefficients to quantization levels in place with a
// dead-zone quantizer. deadzone is in 1/8ths of a step: 4 = round-to-
// nearest, smaller values bias toward zero (cheaper bits, more distortion).
// The hardware pipeline uses a fixed dead zone because a trellis-style
// search does not fit the macroblock pipeline (paper §4.1: "the pipelined
// architecture cannot easily support all the same tools as CPU, such as
// Trellis quantization").
//
// The step division runs as an exact reciprocal multiply (see
// qRecipTable); |coefficients| must be ≤ MaxAbsCoeff. Bit-exact with
// QuantizeScalar, enforced by an exhaustive differential test.
func Quantize(coeffs []int32, qp int, deadzone int32) {
	bias, m := quantizer(qp, deadzone)
	for i, c := range coeffs {
		coeffs[i] = quantize(c, bias, m)
	}
}

// ForwardQuantizeScan is the transform stage of an RDO trial: Forward,
// then QuantizeScan, on the n×n residual block. levels and last are
// exactly theirs; orig is narrower: it holds the true coefficient wherever
// the level is non-zero and may hold 0 where it is zero, because the
// column vectors whose every output provably quantizes to level 0 are not
// transformed (the bound is in the package doc). Both are cleared and
// only the transformed columns quantized, each coefficient stored at its
// scan index. block is scratch afterwards.
func ForwardQuantizeScan(block []int32, n, qp int, deadzone int32, orig, levels []int32) (last int) {
	live := forwardBounded(block, n, zeroLimit(qp, deadzone))
	bias, m := quantizer(qp, deadzone)
	nn := n * n
	at := scanIndex[n][:nn]
	block, orig, levels = block[:nn], orig[:nn], levels[:nn]
	clear(orig)
	clear(levels)
	last = -1
	for ; live != 0; live &= live - 1 {
		for pos := bits.TrailingZeros32(live); pos < nn; pos += n {
			c := block[pos]
			l := quantize(c, bias, m)
			i := int(at[pos])
			orig[i], levels[i] = c, l
			if l != 0 && i > last {
				last = i
			}
		}
	}
	return last
}

// zeroLimit returns the smallest |accumulator| of the column pass whose
// coefficient can quantize to a non-zero level at qp and deadzone: the
// level is non-zero iff |c|·16 + bias ≥ step, i.e. iff |c| ≥ m =
// ceil((step − bias)/16), and c = (acc + descaleRound) >> 2·basisShift
// reaches ±m iff |acc| ≥ m·2^24 − descaleRound. It returns 0 (no bound)
// when the bias is a whole step, where even c = 0 has a non-zero level.
func zeroLimit(qp int, deadzone int32) int64 {
	bias, _ := quantizer(qp, deadzone)
	d := int64(QStep(qp) - bias)
	if d <= 0 {
		return 0
	}
	m := (d + 15) / 16
	return m<<(2*basisShift) - descaleRound
}

// QuantizeScan is Quantize and the two scans of an RDO trial in one walk
// of the n×n coefficient block: in scan order, orig receives the
// coefficients and levels their quantization levels. It returns the scan
// index of the last non-zero level, -1 when there is none, which is what
// both RDOQ and reconstruction branch on. coeffs is left as it was.
func QuantizeScan(coeffs []int32, n, qp int, deadzone int32, orig, levels []int32) (last int) {
	bias, m := quantizer(qp, deadzone)
	scan := zigzagScans[n]
	orig, levels = orig[:len(scan)], levels[:len(scan)]
	last = -1
	for i, pos := range scan {
		c := coeffs[pos]
		l := quantize(c, bias, m)
		orig[i], levels[i] = c, l
		if l != 0 {
			last = i
		}
	}
	return last
}

// quantizer returns the rounding bias (Q4) and the step reciprocal.
func quantizer(qp int, deadzone int32) (bias int32, m uint64) {
	return QStep(qp) * deadzone / 8, qRecipTable[qpClamp(qp)]
}

func quantize(c, bias int32, m uint64) int32 {
	if c < 0 {
		return -int32((uint64(-c*16+bias) * m) >> qRecipShift)
	}
	return int32((uint64(c*16+bias) * m) >> qRecipShift)
}

// QuantizeScalar is the divide-based reference implementation of
// Quantize, retained as differential-test ground truth.
func QuantizeScalar(coeffs []int32, qp int, deadzone int32) {
	step := QStep(qp)
	bias := step * deadzone / 8
	for i, c := range coeffs {
		neg := c < 0
		if neg {
			c = -c
		}
		level := (c*16 + bias) / step
		if neg {
			level = -level
		}
		coeffs[i] = level
	}
}

func qpClamp(qp int) int {
	if qp < 0 {
		return 0
	}
	if qp > MaxQP {
		return MaxQP
	}
	return qp
}

// Dequantize converts levels back to coefficient magnitudes in place.
func Dequantize(levels []int32, qp int) {
	step := QStep(qp)
	for i, l := range levels {
		levels[i] = l * step / 16
	}
}

// zigzag scan orders, one per transform size, generated by walking
// anti-diagonals (low-frequency coefficients first); scanIndex[n] is the
// inverse permutation, the scan index of each block position.
var (
	zigzagScans [MaxSize + 1][]int
	scanIndex   [MaxSize + 1][]uint16
)

func init() {
	for _, n := range Sizes {
		zigzagScans[n] = buildZigzag(n)
		scanIndex[n] = make([]uint16, n*n)
		for i, pos := range zigzagScans[n] {
			scanIndex[n][pos] = uint16(i)
		}
	}
}

func buildZigzag(n int) []int {
	scan := make([]int, 0, n*n)
	for s := 0; s < 2*n-1; s++ {
		if s%2 == 0 { // walk up-right
			i := s
			if i > n-1 {
				i = n - 1
			}
			for ; i >= 0 && s-i < n; i-- {
				scan = append(scan, i*n+(s-i))
			}
		} else { // walk down-left
			j := s
			if j > n-1 {
				j = n - 1
			}
			for ; j >= 0 && s-j < n; j-- {
				scan = append(scan, (s-j)*n+j)
			}
		}
	}
	return scan
}

// Zigzag returns the scan order for an n×n transform. The returned slice
// is shared; callers must not modify it.
func Zigzag(n int) []int { return zigzagScans[n] }

// ScanForward gathers block coefficients into scan order.
func ScanForward(block, scanned []int32, n int) {
	scan := zigzagScans[n]
	for i, pos := range scan {
		scanned[i] = block[pos]
	}
}

// ScanInverse scatters scan-ordered coefficients back to block order.
func ScanInverse(scanned, block []int32, n int) {
	scan := zigzagScans[n]
	for i, pos := range scan {
		block[pos] = scanned[i]
	}
}
