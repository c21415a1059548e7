package transform

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"openvcu/internal/video"
)

// identityQP is the QP whose step is 16, where dequantizing a level is
// the identity (for |level| < 2^27): the tests feed coefficient blocks
// to Reconstruct's kernel as levels at this QP.
const identityQP = 4

// lastLevel is the scan index of the last non-zero level, -1 for none.
func lastLevel(levels []int32) int {
	for i := len(levels) - 1; i >= 0; i-- {
		if levels[i] != 0 {
			return i
		}
	}
	return -1
}

// inverseOf is the inverse transform of a coefficient block, in place,
// through Reconstruct's kernel: the block's levels in scan order at
// identityQP through inverseLevels, then the descale.
func inverseOf(block []int32, n int) {
	levels := make([]int32, n*n)
	ScanForward(block, levels, n)
	acc := make([]int64, n*n)
	if last := lastLevel(levels); last >= 0 {
		inverseLevels(levels, last, n, identityQP, acc)
	}
	for j := 0; j < n/2; j++ { // the last unfold level, which inverseLevels leaves
		e, o := acc[j*n:][:n], acc[(n-1-j)*n:][:n]
		for i := range e {
			e[i], o[i] = e[i]+o[i], e[i]-o[i]
		}
	}
	for i, v := range acc {
		block[i] = int32((v + descaleRound) >> (2 * basisShift))
	}
}

// reconstructed128 replaces a coefficient block by its Reconstruct over
// a flat prediction of 128, at identityQP.
func reconstructed128(block []int32, n int) {
	levels := make([]int32, n*n)
	ScanForward(block, levels, n)
	pred, dst := bytes.Repeat([]byte{128}, n*n), make([]uint8, n*n)
	Reconstruct(levels, lastLevel(levels), n, identityQP, pred, n, dst, n)
	for i, v := range dst {
		block[i] = int32(v)
	}
}

// clamped128 is fn followed by the clamp of 128 plus each output.
func clamped128(fn func([]int32, int)) func([]int32, int) {
	return func(b []int32, n int) {
		fn(b, n)
		for i, v := range b {
			b[i] = int32(video.ClampU8(128 + v))
		}
	}
}

// reconstructRef is Reconstruct written out with the reference kernels:
// the levels up to last scattered into a block, Dequantize, InverseScalar,
// the prediction added and clamped.
func reconstructRef(levels []int32, last, n, qp int, pred []uint8) []uint8 {
	blk := make([]int32, n*n)
	ScanInverse(append(levels[:last+1:last+1], make([]int32, n*n-last-1)...), blk, n)
	Dequantize(blk, qp)
	InverseScalar(blk, n)
	out := make([]uint8, n*n)
	for i := range out {
		out[i] = video.ClampU8(int32(pred[i]) + blk[i])
	}
	return out
}

// TestReconstructMatchesScalar holds Reconstruct to reconstructRef at
// every size and every last position (-1 included), at a random QP per
// block, with levels of four kinds: small dense levels; hostile ones
// (±MaxAbsCoeff, and escapes whose dequantize wraps int32); one level at
// last alone, so the row on last's anti-diagonal is the only one; and
// small levels with garbage past last, which must not be read. The block
// lands at an offset in a wider plane whose other pixels must not move.
func TestReconstructMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	const stride, x0, y0 = 40, 5, 3
	for _, n := range Sizes {
		nn := n * n
		pred := make([]uint8, nn)
		for i := range pred {
			pred[i] = uint8(rng.Intn(256))
		}
		for last := -1; last < nn; last++ {
			qp := rng.Intn(MaxQP + 1)
			kinds := map[string][]int32{
				"small": make([]int32, nn), "hostile": make([]int32, nn),
				"alone": make([]int32, nn), "garbage": make([]int32, nn),
			}
			for i := 0; i <= last; i++ {
				kinds["small"][i] = int32(rng.Intn(129) - 64)
				kinds["garbage"][i] = int32(rng.Intn(129) - 64)
				switch rng.Intn(4) {
				case 0:
					kinds["hostile"][i] = MaxAbsCoeff
				case 1:
					kinds["hostile"][i] = -MaxAbsCoeff
				case 2:
					kinds["hostile"][i] = int32(rng.Uint32()) // l·step wraps int32
				default:
					kinds["hostile"][i] = []int32{math.MaxInt32, math.MinInt32, 1 << 27, -1 << 27}[rng.Intn(4)]
				}
			}
			if last >= 0 {
				kinds["alone"][last] = int32(rng.Intn(64) + 1)
				for _, k := range []string{"small", "hostile", "garbage"} {
					if kinds[k][last] == 0 {
						kinds[k][last] = 1
					}
				}
			}
			for i := last + 1; i < nn; i++ {
				kinds["garbage"][i] = int32(rng.Uint32())
			}
			for name, levels := range kinds {
				want := reconstructRef(levels, last, n, qp, pred)
				plane := bytes.Repeat([]byte{0xA5}, stride*stride)
				Reconstruct(levels, last, n, qp, pred, n, plane[y0*stride+x0:], stride)
				for r := 0; r < stride; r++ {
					for c := 0; c < stride; c++ {
						w := uint8(0xA5)
						if r >= y0 && r < y0+n && c >= x0 && c < x0+n {
							w = want[(r-y0)*n+c-x0]
						}
						if plane[r*stride+c] != w {
							id := fmt.Sprintf("n=%d last=%d qp=%d %s", n, last, qp, name)
							t.Fatalf("%s: plane[%d][%d] = %d, want %d", id, r, c, plane[r*stride+c], w)
						}
					}
				}
			}
		}
	}
}

// TestReconstructInPlace holds Reconstruct with its prediction and its
// output the same pixels, as the codec calls it over a prediction
// sampled into the frame, to the out-of-place result: every size, every
// last position, so each of Reconstruct's paths (-1, the copy; 0, the
// DC path; the full path), dense and hostile levels, the block at an offset in a wider plane whose other
// pixels must not move.
func TestReconstructInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const stride, x0, y0 = 40, 3, 5
	for _, n := range Sizes {
		nn := n * n
		for last := -1; last < nn; last++ {
			levels := make([]int32, nn)
			for i := 0; i <= last; i++ {
				levels[i] = int32(rng.Intn(257) - 128)
				if rng.Intn(8) == 0 {
					levels[i] = []int32{MaxAbsCoeff, -MaxAbsCoeff, math.MaxInt32, math.MinInt32}[rng.Intn(4)]
				}
			}
			if last >= 0 && levels[last] == 0 {
				levels[last] = 1
			}
			qp := rng.Intn(MaxQP + 1)
			plane := make([]uint8, stride*stride)
			for i := range plane {
				plane[i] = uint8(rng.Intn(256))
			}
			pred := make([]uint8, nn)
			for r := 0; r < n; r++ {
				copy(pred[r*n:][:n], plane[(y0+r)*stride+x0:])
			}
			want := slices.Clone(plane)
			Reconstruct(levels, last, n, qp, pred, n, want[y0*stride+x0:], stride)
			blk := plane[y0*stride+x0:]
			Reconstruct(levels, last, n, qp, blk, stride, blk, stride)
			for i := range plane {
				if plane[i] != want[i] {
					t.Fatalf("n=%d last=%d qp=%d: in place, plane[%d][%d] = %d, out of place %d",
						n, last, qp, i/stride, i%stride, plane[i], want[i])
				}
			}
		}
	}
}
