package transform

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The fast transform/quantize kernels must be bit-identical to their
// retained scalar references — these tests are the differential gate.

func TestBasisNestedSymmetryHolds(t *testing.T) {
	// The recursive kernels depend on the rounded basis keeping the DCT
	// mirror symmetry at every fold level; if this ever fails,
	// Forward/Inverse silently fall back to scalar, which would be a
	// performance bug worth seeing.
	for _, n := range Sizes {
		if !basisFolds[n] || !checkBasisFolds(cosBasis[n], n) {
			t.Errorf("n=%d: integer basis lost a mirror symmetry; recursive kernels disabled", n)
		}
		// Every level is checked: a table wrong at exactly one level is
		// refused, whichever level it is.
		for m := n; m >= 2; m /= 2 {
			if checkBasisFolds(doctoredBasis(n, m), n) {
				t.Errorf("n=%d: asymmetry at fold length %d not detected", n, m)
			}
		}
	}
}

// doctoredBasis returns a copy of the n-point basis that breaks the
// symmetry of the fold at vector length m and of no other: the first row
// produced at that level (k = n/m, antisymmetric there) gets an offset at
// entry 0, mirrored through the symmetric folds above so those still hold.
// Rows of later levels are multiples of 2n/m and are not touched.
func doctoredBasis(n, m int) []int32 {
	b := append([]int32(nil), cosBasis[n]...)
	k := n / m
	cols := []int{0}
	for w := 2 * m; w <= n; w *= 2 {
		for _, c := range cols {
			cols = append(cols, w-1-c)
		}
	}
	for _, c := range cols {
		b[k*n+c] += 997
	}
	return b
}

func TestDoctoredBasisFallsBackToScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range Sizes {
		func() {
			saved := cosBasis[n]
			defer func() { cosBasis[n], basisFolds[n] = saved, true }()
			cosBasis[n] = doctoredBasis(n, 4)
			basisFolds[n] = checkBasisFolds(cosBasis[n], n)

			block := make([]int32, n*n)
			for i := range block {
				block[i] = int32(rng.Intn(511) - 255)
			}
			for _, tr := range []struct {
				name         string
				fast, scalar func([]int32, int)
				folded       func([]int32, int)
			}{
				{"Forward", Forward, ForwardScalar, func(b []int32, n int) { forward(b, n, make([]int32, n*n)) }},
				{"Inverse", Inverse, InverseScalar, func(b []int32, n int) { inverse(b, n, make([]int64, n*n), make([]int64, n*n)) }},
			} {
				want := append([]int32(nil), block...)
				tr.scalar(want, n)
				got := append([]int32(nil), block...)
				tr.fast(got, n)
				if !slices.Equal(got, want) {
					t.Errorf("n=%d: %s on an asymmetric basis is not the scalar walk", n, tr.name)
				}
				// The table is wrong enough to matter: the recursive
				// kernel run on it anyway gives a different block.
				copy(got, block)
				tr.folded(got, n)
				if slices.Equal(got, want) {
					t.Errorf("n=%d: doctored basis does not change the folded %s; test proves nothing", n, tr.name)
				}
			}
		}()
	}
}

// edgeBlocks returns the n×n blocks that sit on the edge of an input
// contract |v| ≤ amp: both constant blocks, both alternations of sign, an
// impulse of each sign in each corner, and for every output (k, l) the
// sign pattern of its 2-D basis function, which drives that output and
// the folded sums on the way to it as far as any input can.
func edgeBlocks(n int, amp int32) [][]int32 {
	fill := func(f func(i, j int) int32) []int32 {
		b := make([]int32, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i*n+j] = f(i, j)
			}
		}
		return b
	}
	sgn := func(neg bool) int32 {
		if neg {
			return -amp
		}
		return amp
	}
	blocks := [][]int32{
		fill(func(i, j int) int32 { return amp }),
		fill(func(i, j int) int32 { return -amp }),
		fill(func(i, j int) int32 { return sgn((i+j)%2 == 1) }),
		fill(func(i, j int) int32 { return sgn((i*n+j)%2 == 1) }),
	}
	for _, corner := range []int{0, n - 1, (n - 1) * n, n*n - 1} {
		for _, a := range []int32{amp, -amp} {
			b := make([]int32, n*n)
			b[corner] = a
			blocks = append(blocks, b)
		}
	}
	basis := cosBasis[n]
	for k := 0; k < n; k++ {
		for l := 0; l < n; l++ {
			blocks = append(blocks, fill(func(i, j int) int32 {
				return sgn((basis[k*n+i] < 0) != (basis[l*n+j] < 0))
			}))
		}
	}
	return blocks
}

func checkMatchesScalar(t *testing.T, name string, fast, scalar func([]int32, int), block []int32, n int) {
	t.Helper()
	want := append([]int32(nil), block...)
	scalar(want, n)
	got := append([]int32(nil), block...)
	fast(got, n)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("n=%d %s idx=%d: fast=%d scalar=%d", n, name, i, got[i], want[i])
		}
	}
}

func TestForwardMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range Sizes {
		for trial := 0; trial < 200; trial++ {
			block := make([]int32, n*n)
			switch trial % 4 {
			case 0: // full-range random residual
				for i := range block {
					block[i] = int32(rng.Intn(511) - 255)
				}
			case 1: // extreme values stress accumulator bounds
				for i := range block {
					block[i] = 255
					if rng.Intn(2) == 0 {
						block[i] = -255
					}
				}
			case 2: // sparse
				for k := 0; k < 3; k++ {
					block[rng.Intn(n*n)] = int32(rng.Intn(511) - 255)
				}
			case 3: // structured gradient
				for i := range block {
					block[i] = int32((i%n)*8 - (i/n)*8)
				}
			}
			checkMatchesScalar(t, fmt.Sprintf("trial=%d", trial), Forward, ForwardScalar, block, n)
		}
		// The contract edge, |v| = 2047 < 2^11: the int32 row pass and
		// the int64 column folds must hold their stated bounds here.
		for i, block := range edgeBlocks(n, 2047) {
			checkMatchesScalar(t, fmt.Sprintf("edge=%d", i), Forward, ForwardScalar, block, n)
		}
	}
}

func TestInverseMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range Sizes {
		for trial := 0; trial < 200; trial++ {
			block := make([]int32, n*n)
			switch trial % 4 {
			case 0: // dense coefficients
				for i := range block {
					block[i] = int32(rng.Intn(2001) - 1000)
				}
			case 1: // realistic post-quantization sparsity
				for k := 0; k < 1+rng.Intn(6); k++ {
					block[rng.Intn(n*n)] = int32(rng.Intn(201) - 100)
				}
			case 2: // DC only
				block[0] = int32(rng.Intn(8001) - 4000)
			case 3: // all zero (zero-skip path)
			}
			checkMatchesScalar(t, fmt.Sprintf("trial=%d", trial), Inverse, InverseScalar, block, n)
		}
		for i, block := range edgeBlocks(n, MaxAbsCoeff) {
			checkMatchesScalar(t, fmt.Sprintf("edge=%d", i), Inverse, InverseScalar, block, n)
		}
	}
}

// FuzzTransformMatchesScalar builds a block of either contract from raw
// bytes (two per sample, zero-padded, so short inputs are sparse blocks)
// and holds both kernels to their scalar walks. The seed corpus under
// testdata/fuzz runs with every `go test`.
func FuzzTransformMatchesScalar(f *testing.F) {
	f.Add(uint8(1), []byte{0xff, 0x7f, 0x00, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, size uint8, raw []byte) {
		n := Sizes[int(size)%len(Sizes)]
		resid := make([]int32, n*n)
		coeffs := make([]int32, n*n)
		for i := 0; i < n*n && 2*i+1 < len(raw); i++ {
			v := int32(int16(binary.LittleEndian.Uint16(raw[2*i:])))
			resid[i] = v % 2048                       // |v| ≤ 2047
			coeffs[i] = v * (MaxAbsCoeff / (1 << 15)) // |v| ≤ MaxAbsCoeff
		}
		checkMatchesScalar(t, "fuzz", Forward, ForwardScalar, resid, n)
		checkMatchesScalar(t, "fuzz", Inverse, InverseScalar, coeffs, n)
	})
}

func TestQuantizeMatchesScalarExhaustive(t *testing.T) {
	// Every QP × every deadzone the encoder uses × a dense sweep of the
	// coefficient domain, plus the exact domain boundary. The sweep is
	// exhaustive over |c| ≤ 4096 (covers every coefficient magnitude a
	// 32×32 transform of ±255 residual can emit with margin at low QP
	// granularity) and strided beyond it up to MaxAbsCoeff.
	var coeffs []int32
	for c := int32(-4096); c <= 4096; c++ {
		coeffs = append(coeffs, c)
	}
	for c := int32(4099); c <= MaxAbsCoeff; c += 997 {
		coeffs = append(coeffs, c, -c)
	}
	coeffs = append(coeffs, MaxAbsCoeff, -MaxAbsCoeff)
	for qp := 0; qp <= MaxQP; qp++ {
		for _, dz := range []int32{1, 4} {
			got := append([]int32(nil), coeffs...)
			Quantize(got, qp, dz)
			want := append([]int32(nil), coeffs...)
			QuantizeScalar(want, qp, dz)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("qp=%d dz=%d c=%d: fast=%d scalar=%d",
						qp, dz, coeffs[i], got[i], want[i])
				}
			}
		}
	}
}

func BenchmarkForwardScalar32(b *testing.B) { benchKernel(b, ForwardScalar, residualBlock(32), 32) }

func BenchmarkQuantize32(b *testing.B) {
	block := make([]int32, 1024)
	for i := range block {
		block[i] = int32(i*37%4001 - 2000)
	}
	tmp := make([]int32, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(tmp, block)
		Quantize(tmp, 30, 4)
	}
}

func BenchmarkQuantizeScalar32(b *testing.B) {
	block := make([]int32, 1024)
	for i := range block {
		block[i] = int32(i*37%4001 - 2000)
	}
	tmp := make([]int32, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(tmp, block)
		QuantizeScalar(tmp, 30, 4)
	}
}
