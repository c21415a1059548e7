package transform

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
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
			saved, savedRows := cosBasis[n], fwdRows[n]
			defer func() { cosBasis[n], fwdRows[n], basisFolds[n] = saved, savedRows, true }()
			cosBasis[n] = doctoredBasis(n, 4)
			fwdRows[n] = levelRows(cosBasis[n], n)
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
				{"Forward", Forward, ForwardScalar, func(b []int32, n int) { forward(b, n, make([]int32, n*n), make([]int64, n*n/2), 0) }},
				{"Reconstruct", reconstructed128, clamped128(InverseScalar), clamped128(inverseOf)},
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

// laneBlocks returns the n×n blocks that hold the row pass's two int64
// lanes (rowPair) at their edges: for every output l and each of the four
// pairings of signs, even rows carry ±amp in the sign pattern of basis row
// l and odd rows the same or its negation, so that output l of both rows
// of every pair is as large as any input makes it, of either sign, and a
// negative low lane borrows from the high one.
func laneBlocks(n int, amp int32) [][]int32 {
	basis := cosBasis[n]
	var blocks [][]int32
	for l := 0; l < n; l++ {
		for _, sg := range [][2]int32{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
			b := make([]int32, n*n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					v := sg[i%2] * amp
					if basis[l*n+j] < 0 {
						v = -v
					}
					b[i*n+j] = v
				}
			}
			blocks = append(blocks, b)
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
		for i, block := range laneBlocks(n, 2047) {
			checkMatchesScalar(t, fmt.Sprintf("lane=%d", i), Forward, ForwardScalar, block, n)
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
			checkMatchesScalar(t, fmt.Sprintf("trial=%d", trial), inverseOf, InverseScalar, block, n)
		}
		for i, block := range edgeBlocks(n, MaxAbsCoeff) {
			checkMatchesScalar(t, fmt.Sprintf("edge=%d", i), inverseOf, InverseScalar, block, n)
		}
	}
}

// rowEnergy returns Σ_k ‖v_k‖₂² over the column vectors the row pass of
// the n×n block makes (Σ_i ‖B·x_i‖₂² over its rows), the direct way.
func rowEnergy(block []int32, n int) *big.Int {
	basis := cosBasis[n]
	sum := new(big.Int)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			var v int64
			for j := 0; j < n; j++ {
				v += int64(block[i*n+j]) * int64(basis[k*n+j])
			}
			sum.Add(sum, new(big.Int).Mul(big.NewInt(v), big.NewInt(v)))
		}
	}
	return sum
}

// topSingular returns the input x (|x_j| ≤ 2047) that the n-point
// integer basis B amplifies most, rounded: Bᵀ·u for the top eigenvector u
// of B·Bᵀ, found by power iteration. ‖B·x‖₂²/‖x‖₂² is then close to
// λ_max(B·Bᵀ), which exceeds the largest squared row norm at n ≥ 8.
func topSingular(n int) []int32 {
	basis := cosBasis[n]
	u := make([]float64, n)
	for k := range u {
		u[k] = 1 + float64(k)/float64(n)
	}
	x := make([]float64, n)
	for it := 0; it < 500; it++ {
		clear(x)
		for k, uk := range u { // x = Bᵀu
			for j := range x {
				x[j] += uk * float64(basis[k*n+j])
			}
		}
		var norm float64
		for k := range u { // u = Bx, normalized
			u[k] = 0
			for j, xj := range x {
				u[k] += float64(basis[k*n+j]) * xj
			}
			norm += u[k] * u[k]
		}
		for k := range u {
			u[k] /= math.Sqrt(norm)
		}
	}
	var top float64
	for _, v := range x {
		top = max(top, math.Abs(v))
	}
	out := make([]int32, n)
	for j, v := range x {
		out[j] = int32(math.Round(v / top * 2047))
	}
	return out
}

// TestEnergyBoundHolds: energyBound bounds the energy of the row pass's
// output on random blocks, on blocks whose rows are basis rows, and on
// blocks whose rows are the basis's most amplified input (topSingular).
// There the rounding errors of the integer basis add up, and at n ≥ 8
// the energy exceeds rowNorm2·‖X‖₂²: a bound built from the largest row
// norm alone would be broken.
func TestEnergyBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range Sizes {
		basis := cosBasis[n]
		rows := [][]int32{topSingular(n)}
		for k := 0; k < n; k++ {
			rows = append(rows, basis[k*n:k*n+n])
		}
		exceedsRowNorm := false
		for r, row := range rows {
			b := make([]int32, n*n)
			for i := 0; i < n; i++ {
				copy(b[i*n:i*n+n], row)
			}
			e := rowEnergy(b, n)
			if e.Cmp(new(big.Int).SetUint64(energyBound(b, n))) > 0 {
				t.Fatalf("n=%d input %d: the row pass holds %v, over the bound %d", n, r, e, energyBound(b, n))
			}
			byRowNorm := new(big.Int).Mul(new(big.Int).SetUint64(rowNorm2[n]), new(big.Int).SetUint64(sumSquares(b)))
			exceedsRowNorm = exceedsRowNorm || e.Cmp(byRowNorm) > 0
		}
		if n >= 8 && !exceedsRowNorm {
			t.Errorf("n=%d: no input gains more than rowNorm2: the case proves nothing", n)
		}
		for trial := 0; trial < 100; trial++ {
			b := make([]int32, n*n)
			for i := range b {
				b[i] = int32(rng.Intn(4095) - 2047)
			}
			if e := rowEnergy(b, n); e.Cmp(new(big.Int).SetUint64(energyBound(b, n))) > 0 {
				t.Fatalf("n=%d trial %d: the row pass holds %v, over the bound %d", n, trial, e, energyBound(b, n))
			}
		}
	}
}

// checkForwardQuantizeScan holds ForwardQuantizeScan to QuantizeScan of
// ForwardScalar: the same levels and last, the true coefficient at every
// non-zero level and the true one or 0 elsewhere. It reports whether a
// column was skipped beside a non-zero level, the case the bound is for.
func checkForwardQuantizeScan(t *testing.T, id string, block []int32, n, qp int, dz int32) bool {
	t.Helper()
	nn := n * n
	coeffs := slices.Clone(block)
	ForwardScalar(coeffs, n)
	wantOrig, wantLevels := make([]int32, nn), make([]int32, nn)
	wantLast := QuantizeScan(coeffs, n, qp, dz, wantOrig, wantLevels)

	orig, levels := make([]int32, nn), make([]int32, nn)
	last := ForwardQuantizeScan(slices.Clone(block), n, qp, dz, orig, levels)
	if last != wantLast || !slices.Equal(levels, wantLevels) {
		t.Fatalf("n=%d qp=%d dz=%d %s: levels differ from the scalar path (last %d, want %d)", n, qp, dz, id, last, wantLast)
	}
	for i, l := range levels {
		if orig[i] != wantOrig[i] && (l != 0 || orig[i] != 0) {
			t.Fatalf("n=%d qp=%d dz=%d %s: orig[%d] = %d at level %d, coefficient %d", n, qp, dz, id, i, orig[i], l, wantOrig[i])
		}
	}
	return last >= 0 && !slices.Equal(orig, wantOrig)
}

// refZeroLimit is zeroLimit found the long way: m is the smallest |c|
// that QuantizeScalar gives a non-zero level, and (acc + 2^23) >> 24
// first reaches m at acc = m·2^24 − 2^23. 0: even c = 0 has one.
func refZeroLimit(qp int, dz int32) int64 {
	for m := int32(0); ; m++ {
		l := []int32{m}
		QuantizeScalar(l, qp, dz)
		if l[0] == 0 {
			continue
		}
		if m == 0 {
			return 0
		}
		return int64(m)<<24 - 1<<23
	}
}

// TestZeroLimitIsTight: the accumulator bound is exactly the smallest one
// with a non-zero level. A larger one skips columns that have one; a
// smaller one stays exact but skips less than it can, which no
// differential test notices.
func TestZeroLimitIsTight(t *testing.T) {
	for qp := 0; qp <= MaxQP; qp++ {
		for dz := int32(0); dz <= 8; dz++ {
			if got, want := zeroLimit(qp, dz), refZeroLimit(qp, dz); got != want {
				t.Errorf("qp=%d dz=%d: zeroLimit %d, the smallest accumulator with a non-zero level is %d", qp, dz, got, want)
			}
		}
	}
}

// slackBlock is the generator the slack cases of
// TestForwardQuantizeScanMatchesScalar were searched with: the sign
// pattern of one 2-D basis function at ±1..3, kept on a random subset of
// rows and columns, so that a column vector lies close to one basis row
// and its bound is close to its largest output.
func slackBlock(n int, seed int64) []int32 {
	r := rand.New(rand.NewSource(seed))
	basis := cosBasis[n]
	k, l := r.Intn(n), r.Intn(n)
	p, q := r.Float64(), r.Float64()
	a := int32(1 + r.Intn(3))
	b := make([]int32, n*n)
	for i := 0; i < n; i++ {
		if r.Float64() >= p {
			continue
		}
		for j := 0; j < n; j++ {
			if r.Float64() >= q {
				continue
			}
			b[i*n+j] = a
			if (basis[k*n+i] < 0) != (basis[l*n+j] < 0) {
				b[i*n+j] = -a
			}
		}
	}
	return b
}

// inRoundingSlack reports whether a column vector v of block (after the
// row pass) has its bound N·‖v‖₂ in [limit, limit + 2^23) and an output
// of at least limit: a bound that forgot the rounding slack skips it, and
// loses a non-zero level.
func inRoundingSlack(block []int32, n int, limit int64) bool {
	basis := cosBasis[n]
	var n2 int64 // N²: the largest squared norm of a basis row
	for k := 0; k < n; k++ {
		var s int64
		for _, b := range basis[k*n : k*n+n] {
			s += int64(b) * int64(b)
		}
		n2 = max(n2, s)
	}
	sq := func(x int64) *big.Int { return new(big.Int).Mul(big.NewInt(x), big.NewInt(x)) }
	lo, hi := sq(limit), sq(limit+1<<23)
	for l := 0; l < n; l++ {
		v := make([]int64, n)
		var norm2 int64
		for i := range v {
			for j := 0; j < n; j++ {
				v[i] += int64(block[i*n+j]) * int64(basis[l*n+j])
			}
			norm2 += v[i] * v[i]
		}
		if bound := new(big.Int).Mul(big.NewInt(norm2), big.NewInt(n2)); bound.Cmp(lo) < 0 || bound.Cmp(hi) >= 0 {
			continue
		}
		for k := 0; k < n; k++ {
			var acc int64
			for i, x := range v {
				acc += int64(basis[k*n+i]) * x
			}
			if acc >= limit || -acc >= limit {
				return true
			}
		}
	}
	return false
}

func TestForwardQuantizeScanMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	partial := 0
	for _, n := range Sizes {
		var blocks [][]int32
		for trial := 0; trial < 8; trial++ {
			b := make([]int32, n*n)
			switch trial % 4 {
			case 0: // full-range random residual
				for i := range b {
					b[i] = int32(rng.Intn(511) - 255)
				}
			case 1: // low-amplitude residual: columns skip at low QPs too
				for i := range b {
					b[i] = int32(rng.Intn(7) - 3)
				}
			case 2: // sparse
				for k := 0; k < 3; k++ {
					b[rng.Intn(n*n)] = int32(rng.Intn(511) - 255)
				}
			case 3: // all zero
			}
			blocks = append(blocks, b)
		}
		// The contract edge, |v| = 2047, where ‖v‖₂² is largest: each
		// block at one QP, its index modulo 64.
		edge := edgeBlocks(n, 2047)
		for qp := 0; qp <= MaxQP; qp++ {
			for _, dz := range []int32{1, 3, 4} {
				for i, b := range blocks {
					if checkForwardQuantizeScan(t, fmt.Sprintf("trial=%d", i), b, n, qp, dz) {
						partial++
					}
				}
				for i := qp; i < len(edge); i += MaxQP + 1 {
					checkForwardQuantizeScan(t, fmt.Sprintf("edge=%d", i), edge[i], n, qp, dz)
				}
			}
		}
	}
	if partial == 0 {
		t.Error("no block skipped a column beside a non-zero level: the test proves nothing")
	}
	// Blocks searched for with slackBlock, at the encoder's dead zone: a
	// column whose bound lies inside the 2^23 rounding slack of limit
	// and that has a non-zero level, at a small and a larger m per size.
	for _, c := range []struct {
		n    int
		seed int64
		qp   int // m = 1, 10; 1, 15; 1, 3; 1, 10
	}{
		{4, 5, 0}, {4, 57, 28},
		{8, 1, 0}, {8, 242, 31},
		{16, 9, 0}, {16, 196, 15},
		{32, 189, 0}, {32, 1279, 28},
	} {
		block := slackBlock(c.n, c.seed)
		if !inRoundingSlack(block, c.n, refZeroLimit(c.qp, 3)) {
			t.Errorf("n=%d seed=%d qp=%d: no column bound inside the rounding slack: the case proves nothing", c.n, c.seed, c.qp)
		}
		checkForwardQuantizeScan(t, fmt.Sprintf("slack seed=%d", c.seed), block, c.n, c.qp, 3)
	}
	// Blocks searched for with bandBlock, at the encoder's dead zone: the
	// energy left for the upper half of the row pass is within a
	// thousandth of one column's bound, just under it (the upper half is
	// never computed) and just over it (it is).
	for _, c := range []struct {
		n     int
		seed  int64
		qp    int
		under bool
	}{
		{16, 206, 40, true}, {16, 115, 48, false},
		{32, 21, 49, true}, {32, 122, 53, false},
	} {
		block := bandBlock(c.n, c.seed)
		margin, skip := halfBandMargin(block, c.n, c.qp, 3)
		if c.under != (margin <= 0) || 1000*max(margin, -margin) >= skip {
			t.Errorf("n=%d seed=%d qp=%d: the upper half's energy is %d off one column's bound %d: the case proves nothing", c.n, c.seed, c.qp, margin, skip)
		}
		checkForwardQuantizeScan(t, fmt.Sprintf("half-band seed=%d", c.seed), block, c.n, c.qp, 3)
	}
}

// bandBlock is the generator the half-band cases of
// TestForwardQuantizeScanMatchesScalar were searched with: a random
// residual of amplitude 1..24 at a random density.
func bandBlock(n int, seed int64) []int32 {
	r := rand.New(rand.NewSource(seed))
	a := 1 + r.Intn(24)
	p := r.Float64()
	b := make([]int32, n*n)
	for i := range b {
		if r.Float64() < p {
			b[i] = int32(r.Intn(2*a+1) - a)
		}
	}
	return b
}

// halfBandMargin returns energyBound(block) − Σ_{k<n/2} ‖v_k‖₂² − skip,
// where the v_k are the column vectors of the row pass, found the direct
// way, and skip is one column's bound at qp and dz: the half-band test
// leaves the upper half uncomputed iff the margin is ≤ 0.
func halfBandMargin(block []int32, n, qp int, dz int32) (margin, skip int64) {
	s, _ := columnSkipBound(refZeroLimit(qp, dz), n)
	basis := cosBasis[n]
	var lower int64
	for k := 0; k < n/2; k++ {
		for i := 0; i < n; i++ {
			var v int64
			for j := 0; j < n; j++ {
				v += int64(block[i*n+j]) * int64(basis[k*n+j])
			}
			lower += v * v
		}
	}
	return int64(energyBound(block, n)) - lower - int64(s), int64(s)
}

// FuzzTransformMatchesScalar builds a block of either contract from raw
// bytes (two per sample, zero-padded, so short inputs are sparse blocks)
// and holds both kernels to their scalar walks, and ForwardQuantizeScan to
// the scalar path at QP size>>2 and the encoder's dead zone. The seed
// corpus under testdata/fuzz runs with every `go test`.
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
		checkMatchesScalar(t, "fuzz", inverseOf, InverseScalar, coeffs, n)
		checkForwardQuantizeScan(t, "fuzz", resid, n, int(size>>2), 3)
	})
}

func TestQuantizeMatchesScalarExhaustive(t *testing.T) {
	// Every QP × every deadzone 0–8 (the encoder and the ledger use 3) ×
	// a dense sweep of the coefficient domain, plus the exact domain
	// boundary. The sweep is
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
		for dz := int32(0); dz <= 8; dz++ {
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
