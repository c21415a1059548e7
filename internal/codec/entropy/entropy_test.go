package entropy

import (
	"math/rand"
	"testing"

	"openvcu/internal/bits"
)

// modeBlock is one block's worth of every mode-syntax element.
type modeBlock struct {
	split  bool
	skip   bool
	inter  bool
	mode   int
	ref    int
	comp   bool
	dx, dy int32
}

// codeModeBlock walks every element of b through s, in place: a Writer or
// a Rate leaves b as it was, a Reader fills it from the stream.
func codeModeBlock(m *Model, s Symbols, b *modeBlock) {
	b.split = m.CodeSplit(s, 1, b.split)
	b.skip = s.Bool(b.skip, &m.Skip)
	b.inter = s.Bool(b.inter, &m.IsInter)
	b.mode = m.CodeIntraMode(s, b.mode)
	b.ref = m.CodeRef(s, b.ref)
	b.comp = s.Bool(b.comp, &m.Compound)
	b.dx, b.dy = m.CodeMVDiff(s, b.dx, b.dy)
}

func randomModeBlocks(rng *rand.Rand, n int) []modeBlock {
	blocks := make([]modeBlock, n)
	for i := range blocks {
		blocks[i] = modeBlock{
			split: rng.Intn(3) == 0,
			skip:  rng.Intn(4) == 0,
			inter: rng.Intn(2) == 0,
			mode:  rng.Intn(4),
			ref:   rng.Intn(3),
			comp:  rng.Intn(5) == 0,
			dx:    int32(rng.Intn(65) - 32),
			dy:    int32(rng.Intn(65) - 32),
		}
	}
	return blocks
}

func TestModeSyntaxRoundTrip(t *testing.T) {
	blocks := randomModeBlocks(rand.New(rand.NewSource(1)), 500)
	enc := NewModel(true)
	e := bits.NewEncoder()
	for i, b := range blocks {
		w := b
		codeModeBlock(enc, Writer{E: e}, &w)
		if w != b {
			t.Fatalf("block %d: writer returned %+v, coded %+v", i, w, b)
		}
	}
	dec := NewModel(true)
	d := bits.NewDecoder(e.Bytes())
	for i, b := range blocks {
		var got modeBlock
		codeModeBlock(dec, Reader{D: d}, &got)
		if got != b {
			t.Fatalf("block %d: read %+v, wrote %+v", i, got, b)
		}
	}
	if d.Overrun() {
		t.Fatal("decoder overran")
	}
	if *enc != *dec {
		t.Fatal("encoder and decoder models diverged")
	}

	// Rate prices the same walk: on a static model its sum tracks the
	// bits Writer writes.
	static := NewModel(false)
	e = bits.NewEncoder()
	var r Rate
	for _, b := range blocks {
		codeModeBlock(static, &r, &b)
		codeModeBlock(static, Writer{E: e}, &b)
	}
	if est, actual := int(r.N/256), len(e.Bytes())*8; !costTracks(est, actual) {
		t.Errorf("mode syntax: estimated %d bits, actual %d", est, actual)
	}
}

// costTracks reports whether an estimate of est bits is within 15 % (and
// a 64-bit slack) of the actual bits written.
func costTracks(est, actual int) bool {
	diff := actual - est
	if diff < 0 {
		diff = -diff
	}
	return diff <= actual*15/100+64
}

func randomCoeffs(rng *rand.Rand, n int, density float64) []int32 {
	c := make([]int32, n*n)
	for i := range c {
		if rng.Float64() < density/float64(1+i/4) {
			c[i] = int32(rng.Intn(41) - 20)
		}
	}
	return c
}

func TestCoeffRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{4, 8, 16, 32} {
		enc := NewModel(true)
		dec := NewModel(true)
		e := bits.NewEncoder()
		var all [][]int32
		for trial := 0; trial < 60; trial++ {
			c := randomCoeffs(rng, n, 0.5)
			all = append(all, c)
			enc.WriteCoeffs(e, trial%2, c, n)
		}
		d := bits.NewDecoder(e.Bytes())
		got := make([]int32, n*n)
		for trial, want := range all {
			dec.ReadCoeffs(d, trial%2, got, n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d trial=%d coeff %d: got %d want %d", n, trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestCoeffAllZeros(t *testing.T) {
	enc := NewModel(true)
	e := bits.NewEncoder()
	zeros := make([]int32, 64)
	enc.WriteCoeffs(e, 0, zeros, 8)
	before := e.Bools()
	if before != 1 {
		t.Errorf("all-zero block used %d bools, want 1 (just EOB)", before)
	}
	dec := NewModel(true)
	d := bits.NewDecoder(e.Bytes())
	got := make([]int32, 64)
	got[5] = 99 // must be cleared
	dec.ReadCoeffs(d, 0, got, 8)
	for i, v := range got {
		if v != 0 {
			t.Fatalf("coeff %d = %d, want 0", i, v)
		}
	}
}

func TestCoeffLargeMagnitudes(t *testing.T) {
	enc := NewModel(false)
	dec := NewModel(false)
	e := bits.NewEncoder()
	c := make([]int32, 16)
	c[0] = 30000
	c[1] = -30000
	c[15] = 7
	enc.WriteCoeffs(e, 0, c, 4)
	d := bits.NewDecoder(e.Bytes())
	got := make([]int32, 16)
	dec.ReadCoeffs(d, 0, got, 4)
	for i := range c {
		if got[i] != c[i] {
			t.Fatalf("coeff %d: got %d want %d", i, got[i], c[i])
		}
	}
}

func TestCoeffCostTracksActual(t *testing.T) {
	// Cost estimate (static contexts) should be within 15% of actual bits.
	rng := rand.New(rand.NewSource(3))
	enc := NewModel(false) // static so cost model is exact per call
	e := bits.NewEncoder()
	var est uint32
	for i := 0; i < 200; i++ {
		c := randomCoeffs(rng, 8, 0.4)
		est += enc.CoeffCost(0, c, 8)
		enc.WriteCoeffs(e, 0, c, 8)
	}
	actualBits := len(e.Bytes()) * 8
	estBits := int(est / 256)
	if !costTracks(estBits, actualBits) {
		t.Errorf("estimated %d bits, actual %d", estBits, actualBits)
	}
}

func TestAdaptiveModelsStayInSync(t *testing.T) {
	// After coding identical data, encoder and decoder models must be
	// bitwise identical — the invariant backward adaptation rests on.
	rng := rand.New(rand.NewSource(4))
	enc := NewModel(true)
	e := bits.NewEncoder()
	var seqs [][]int32
	for i := 0; i < 50; i++ {
		c := randomCoeffs(rng, 8, 0.6)
		seqs = append(seqs, c)
		enc.WriteCoeffs(e, 0, c, 8)
	}
	dec := NewModel(true)
	d := bits.NewDecoder(e.Bytes())
	buf := make([]int32, 64)
	for range seqs {
		dec.ReadCoeffs(d, 0, buf, 8)
	}
	if *enc != *dec {
		t.Fatal("encoder and decoder models diverged")
	}
}

func TestStaticModelDoesNotAdapt(t *testing.T) {
	m := NewModel(false)
	initial := m.Skip.P
	e := bits.NewEncoder()
	for i := 0; i < 100; i++ {
		Writer{E: e}.Bool(true, &m.Skip)
	}
	if m.Skip.P != initial {
		t.Fatalf("static context adapted: %d -> %d", initial, m.Skip.P)
	}
}

func TestAdaptiveCompressesBetterOnSkewedCoeffs(t *testing.T) {
	// Realistic sparse coefficients: adaptation should beat static
	// contexts once the models learn the local statistics.
	rng := rand.New(rand.NewSource(5))
	var seqs [][]int32
	for i := 0; i < 400; i++ {
		seqs = append(seqs, randomCoeffs(rng, 8, 0.15))
	}
	run := func(adaptive bool) int {
		m := NewModel(adaptive)
		e := bits.NewEncoder()
		for _, c := range seqs {
			m.WriteCoeffs(e, 0, c, 8)
		}
		return len(e.Bytes())
	}
	static, adapt := run(false), run(true)
	if adapt >= static {
		t.Errorf("adaptive (%dB) not better than static (%dB)", adapt, static)
	}
}
