package transform

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestForwardInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range Sizes {
		for trial := 0; trial < 20; trial++ {
			block := make([]int32, n*n)
			orig := make([]int32, n*n)
			for i := range block {
				block[i] = int32(rng.Intn(511) - 255)
				orig[i] = block[i]
			}
			Forward(block, n)
			inverseOf(block, n)
			for i := range block {
				d := block[i] - orig[i]
				if d < -2 || d > 2 {
					t.Fatalf("n=%d trial=%d idx=%d: %d -> %d (err %d)",
						n, trial, i, orig[i], block[i], d)
				}
			}
		}
	}
}

// TestForwardPinnedOutputs holds one forward transform per size to the
// values it had when the bitstream format was fixed. Kernel and scalar
// reference, encoder and decoder all share the rounding constant, so
// every differential test and every round trip agrees with itself
// whatever it is; this is the test that does not. Each block (seeded,
// samples in [-255, 255]) was searched for: the accumulator of the
// coefficient at index tie is an exact half, the one case where rounding
// half up and half down part.
func TestForwardPinnedOutputs(t *testing.T) {
	for _, c := range []struct {
		n         int
		seed      int64
		tie       int
		want      int32  // output[tie]
		wantCRC32 uint32 // of the whole output, little-endian int32s
	}{
		{4, 1, 0, -229, 0xd5b13335},
		{8, 59494, 6, 91, 0xe4be0be7},
		{16, 10, 128, -63, 0x65e68dcd},
		{32, 23507, 640, -90, 0xb64956d1},
	} {
		r := rand.New(rand.NewSource(c.seed))
		block := make([]int32, c.n*c.n)
		for i := range block {
			block[i] = int32(r.Intn(511) - 255)
		}
		Forward(block, c.n)
		if block[c.tie] != c.want {
			t.Errorf("n=%d: coefficient %d is %d, pinned %d: an exact half no longer rounds up", c.n, c.tie, block[c.tie], c.want)
		}
		buf := make([]byte, 0, 4*len(block))
		for _, v := range block {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		if sum := crc32.ChecksumIEEE(buf); sum != c.wantCRC32 {
			t.Errorf("n=%d: output CRC-32 %#08x, pinned %#08x: every bitstream has changed", c.n, sum, c.wantCRC32)
		}
	}
}

func TestDCCoefficient(t *testing.T) {
	// A constant block must concentrate all energy in the DC coefficient.
	for _, n := range Sizes {
		block := make([]int32, n*n)
		for i := range block {
			block[i] = 100
		}
		Forward(block, n)
		// DC = mean * n (orthonormal scaling): 100*n
		wantDC := int32(100 * n)
		if d := block[0] - wantDC; d < -2 || d > 2 {
			t.Errorf("n=%d DC=%d want ~%d", n, block[0], wantDC)
		}
		for i := 1; i < n*n; i++ {
			if block[i] < -1 || block[i] > 1 {
				t.Errorf("n=%d AC[%d]=%d, want ~0", n, i, block[i])
			}
		}
	}
}

func TestEnergyPreservation(t *testing.T) {
	// Orthonormal transform preserves energy (Parseval) within rounding.
	rng := rand.New(rand.NewSource(2))
	for _, n := range Sizes {
		block := make([]int32, n*n)
		var inEnergy int64
		for i := range block {
			block[i] = int32(rng.Intn(201) - 100)
			inEnergy += int64(block[i]) * int64(block[i])
		}
		Forward(block, n)
		var outEnergy int64
		for _, c := range block {
			outEnergy += int64(c) * int64(c)
		}
		ratio := float64(outEnergy) / float64(inEnergy)
		if ratio < 0.98 || ratio > 1.02 {
			t.Errorf("n=%d energy ratio %.4f", n, ratio)
		}
	}
}

func TestQuantizeDequantizeError(t *testing.T) {
	// Reconstruction error must be bounded by the step size.
	for _, qp := range []int{0, 10, 20, 35, 50, 63} {
		step := QStep(qp)
		coeffs := []int32{0, 5, -5, 100, -100, 1000, -1000, 30000}
		levels := append([]int32(nil), coeffs...)
		Quantize(levels, qp, 4)
		Dequantize(levels, qp)
		for i := range coeffs {
			err := levels[i] - coeffs[i]
			if err < 0 {
				err = -err
			}
			if err > step/16+1 {
				t.Errorf("qp=%d coeff=%d recon=%d err %d > step %d",
					qp, coeffs[i], levels[i], err, step/16)
			}
		}
	}
}

func TestQStepDoublesEverySix(t *testing.T) {
	for qp := 0; qp+6 <= MaxQP; qp++ {
		lo, hi := QStepFloat(qp), QStepFloat(qp+6)
		ratio := hi / lo
		if ratio < 1.85 || ratio > 2.15 {
			t.Errorf("QStep(%d+6)/QStep(%d) = %.3f, want ~2", qp, qp, ratio)
		}
	}
}

func TestDeadzoneBiasesTowardZero(t *testing.T) {
	qp := 30
	c := []int32{QStep(qp) / 32 * 10} // below half step in magnitude terms
	nearest := append([]int32(nil), c...)
	Quantize(nearest, qp, 4)
	dz := append([]int32(nil), c...)
	Quantize(dz, qp, 1)
	if abs32(dz[0]) > abs32(nearest[0]) {
		t.Errorf("deadzone quantizer produced larger level %d > %d", dz[0], nearest[0])
	}
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

func TestZigzagIsPermutation(t *testing.T) {
	for _, n := range Sizes {
		scan := Zigzag(n)
		if len(scan) != n*n {
			t.Fatalf("n=%d scan length %d", n, len(scan))
		}
		seen := make([]bool, n*n)
		for _, p := range scan {
			if p < 0 || p >= n*n || seen[p] {
				t.Fatalf("n=%d invalid or duplicate position %d", n, p)
			}
			seen[p] = true
		}
		// starts at DC, second element is a direct neighbor of DC
		if scan[0] != 0 {
			t.Fatalf("n=%d scan must start at DC", n)
		}
		if scan[1] != 1 && scan[1] != n {
			t.Fatalf("n=%d second scan position %d not adjacent to DC", n, scan[1])
		}
	}
}

func TestScanRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := Sizes[rng.Intn(len(Sizes))]
		block := make([]int32, n*n)
		for i := range block {
			block[i] = rng.Int31n(2000) - 1000
		}
		scanned := make([]int32, n*n)
		back := make([]int32, n*n)
		ScanForward(block, scanned, n)
		ScanInverse(scanned, back, n)
		for i := range block {
			if block[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestZigzagOrdersLowFrequencyFirst(t *testing.T) {
	// The sum of (row+col) must be non-decreasing along the scan.
	for _, n := range Sizes {
		scan := Zigzag(n)
		prev := -1
		for _, p := range scan {
			s := p/n + p%n
			if s < prev-0 && s != prev {
				if s < prev {
					t.Fatalf("n=%d scan not by anti-diagonal", n)
				}
			}
			if s > prev {
				prev = s
			}
		}
	}
}

// benchKernel times fn on a fresh copy of src per iteration. The copy goes
// into a block allocated once: the kernels allocate nothing, and the
// benchmark must not either.
func benchKernel(b *testing.B, fn func([]int32, int), src []int32, n int) {
	block := make([]int32, n*n)
	run := func() {
		copy(block, src)
		fn(block, n)
	}
	if a := testing.AllocsPerRun(10, run); a != 0 {
		b.Fatalf("%v allocs per call, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func residualBlock(n int) []int32 {
	block := make([]int32, n*n)
	for i := range block {
		block[i] = int32(i%(n-3) - n/2 + 1)
	}
	return block
}

func BenchmarkForward4(b *testing.B)  { benchKernel(b, Forward, residualBlock(4), 4) }
func BenchmarkForward8(b *testing.B)  { benchKernel(b, Forward, residualBlock(8), 8) }
func BenchmarkForward16(b *testing.B) { benchKernel(b, Forward, residualBlock(16), 16) }
func BenchmarkForward32(b *testing.B) { benchKernel(b, Forward, residualBlock(32), 32) }

// BenchmarkForwardQuantizeScan32 times the encoder's transform stage on a
// seeded ±16 residual at QP 48, the upload ladder's range, where most
// column vectors of a 32×32 block provably quantize to zero.
func BenchmarkForwardQuantizeScan32(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	src := make([]int32, 32*32)
	for i := range src {
		src[i] = int32(r.Intn(33) - 16)
	}
	orig, levels := make([]int32, len(src)), make([]int32, len(src))
	benchKernel(b, func(block []int32, n int) { ForwardQuantizeScan(block, n, 48, 3, orig, levels) }, src, 32)
}

// benchReconstruct times Reconstruct on what a decoder hands it: the
// levels of a textured residual after Forward and Quantize at a mid QP
// (a few low frequencies survive), and the levels of an impulse at the
// last scan position, where every row takes part.
func benchReconstruct(b *testing.B, n int) {
	block := make([]int32, n*n)
	for i := range block {
		block[i] = int32((i%n)*3 - (i/n)*2 + i*7%5)
	}
	Forward(block, n)
	Quantize(block, 30, 3)
	sparse := make([]int32, n*n)
	ScanForward(block, sparse, n)
	corner := make([]int32, n*n)
	corner[n*n-1] = 5
	pred, dst := make([]uint8, n*n), make([]uint8, n*n)
	for _, c := range []struct {
		name   string
		levels []int32
	}{{"sparse", sparse}, {"corner", corner}} {
		last := lastLevel(c.levels)
		b.Run(c.name, func(b *testing.B) {
			run := func() { Reconstruct(c.levels, last, n, 30, pred, n, dst, n) }
			if a := testing.AllocsPerRun(10, run); a != 0 {
				b.Fatalf("%v allocs per call, want 0", a)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

func BenchmarkReconstruct8(b *testing.B)  { benchReconstruct(b, 8) }
func BenchmarkReconstruct16(b *testing.B) { benchReconstruct(b, 16) }
func BenchmarkReconstruct32(b *testing.B) { benchReconstruct(b, 32) }
