package codec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"openvcu/internal/codec/transform"
	"openvcu/internal/video"
)

// TestReconstructMatchesUnfusedPath holds the RDO trial's transform stage
// — QuantizeScan, and transform.Reconstruct with its copy-the-prediction
// and DC shortcuts — to the path it replaced, written out with the scalar
// reference kernels: ScanForward, Quantize, ScanForward, a backwards scan
// for the last level, then ScanInverse, Dequantize, InverseScalar, add,
// clamp. Every QP and size; coefficient blocks that quantize to dense,
// sparse, DC-only, last-position-only and all-zero levels.
func TestReconstructMatchesUnfusedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const deadzone = 3
	for _, n := range transform.Sizes {
		nn := n * n
		pred := make([]uint8, nn)
		for i := range pred {
			pred[i] = uint8(rng.Intn(256)) // both clamps get exercised
		}
		var shortcut [3]int // blocks that took the copy, the DC and the full path
		for qp := 0; qp <= transform.MaxQP; qp++ {
			step := transform.QStep(qp)/16 + 1
			kinds := map[string][]int32{
				"zero":  make([]int32, nn),
				"dc":    make([]int32, nn),
				"last":  make([]int32, nn),
				"dense": make([]int32, nn),
				"decay": make([]int32, nn),
				"below": make([]int32, nn),
			}
			kinds["dc"][0] = int32(rng.Intn(2*n*255+1) - n*255)
			kinds["last"][nn-1] = -3 * step
			for i := 0; i < nn; i++ {
				kinds["dense"][i] = int32(rng.Intn(8*int(step)+1)) - 4*step
				// energy falling off along both axes, as a residual's does
				kinds["decay"][i] = (int32(rng.Intn(2001)) - 1000) * 4 / int32(1+(i/n)*(i/n)+(i%n)*(i%n))
				kinds["below"][i] = int32(rng.Intn(3)) - 1 // all under the dead zone at most QPs
			}
			for name, coeffs := range kinds {
				id := fmt.Sprintf("n=%d qp=%d %s", n, qp, name)

				wantOrig := make([]int32, nn)
				wantLevels := make([]int32, nn)
				q := slices.Clone(coeffs)
				transform.ScanForward(q, wantOrig, n)
				transform.QuantizeScalar(q, qp, deadzone)
				transform.ScanForward(q, wantLevels, n)
				wantLast := -1
				for i, l := range wantLevels {
					if l != 0 {
						wantLast = i
					}
				}

				orig := make([]int32, nn)
				levels := make([]int32, nn)
				in := slices.Clone(coeffs)
				last := transform.QuantizeScan(in, n, qp, deadzone, orig, levels)
				if last != wantLast || !slices.Equal(orig, wantOrig) || !slices.Equal(levels, wantLevels) || !slices.Equal(in, coeffs) {
					t.Fatalf("%s: QuantizeScan differs from scan, quantize, scan (last %d, want %d)", id, last, wantLast)
				}

				shortcut[min(last, 1)+1]++

				blk := make([]int32, nn)
				transform.ScanInverse(wantLevels, blk, n)
				transform.Dequantize(blk, qp)
				transform.InverseScalar(blk, n)
				want := make([]uint8, nn)
				for i := range want {
					want[i] = video.ClampU8(int32(pred[i]) + blk[i])
				}

				// Into a plane wider than the block, at an offset:
				// nothing outside the block may move.
				const stride, x, y = 40, 5, 3
				plane := make([]uint8, stride*stride)
				for i := range plane {
					plane[i] = 0xA5
				}
				transform.Reconstruct(levels, last, n, qp, pred, n, plane[y*stride+x:], stride)
				for r := 0; r < stride; r++ {
					for c := 0; c < stride; c++ {
						w := uint8(0xA5)
						if r >= y && r < y+n && c >= x && c < x+n {
							w = want[(r-y)*n+c-x]
						}
						if plane[r*stride+c] != w {
							t.Fatalf("%s (last %d): plane[%d][%d] = %d, want %d", id, last, r, c, plane[r*stride+c], w)
						}
					}
				}
			}
		}
		if slices.Min(shortcut[:]) < transform.MaxQP/2 {
			t.Errorf("n=%d: paths taken (copy, DC, full) = %v; each should be exercised at most QPs", n, shortcut)
		}
	}
}
