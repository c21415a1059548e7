package entropy

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"openvcu/internal/bits"
	"openvcu/internal/codec/transform"
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
func codeModeBlock(m *Model, s Sink, b *modeBlock) {
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
		codeModeBlock(enc, Writer(e), &w)
		if w != b {
			t.Fatalf("block %d: writer returned %+v, coded %+v", i, w, b)
		}
	}
	dec := NewModel(true)
	d := bits.NewDecoder(e.Bytes())
	for i, b := range blocks {
		var got modeBlock
		codeModeBlock(dec, Reader(d), &got)
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
	var sum uint32
	for _, b := range blocks {
		codeModeBlock(static, Rate(&sum), &b)
		codeModeBlock(static, Writer(e), &b)
	}
	if est, actual := int(sum/256), len(e.Bytes())*8; !costTracks(est, actual) {
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

// lastNonZero is the scan index of the last non-zero level (-1: none).
func lastNonZero(c []int32) int {
	for i := len(c) - 1; i >= 0; i-- {
		if c[i] != 0 {
			return i
		}
	}
	return -1
}

// writeCoeffs codes c through Writer.
func writeCoeffs(m *Model, e *bits.Encoder, plane int, c []int32, n int) {
	m.CodeCoeffs(Writer(e), plane, c, n, lastNonZero(c))
}

// readCoeffs decodes one block into got and zeroes it beyond the last
// level coded as non-zero, where CodeCoeffs leaves got as it was.
func readCoeffs(m *Model, d *bits.Decoder, plane int, got []int32, n int) int {
	coded := m.CodeCoeffs(Reader(d), plane, got, n, -1)
	clear(got[coded+1:])
	return coded
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
			writeCoeffs(enc, e, trial%2, c, n)
		}
		d := bits.NewDecoder(e.Bytes())
		got := make([]int32, n*n)
		for trial, want := range all {
			readCoeffs(dec, d, trial%2, got, n)
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
	writeCoeffs(enc, e, 0, make([]int32, 64), 8)
	if before := e.Bools(); before != 1 {
		t.Errorf("all-zero block used %d bools, want 1 (just EOB)", before)
	}
	dec := NewModel(true)
	d := bits.NewDecoder(e.Bytes())
	got := make([]int32, 64)
	got[5] = 99 // stale: beyond the last level coded
	if coded := dec.CodeCoeffs(Reader(d), 0, got, 8, -1); coded != -1 {
		t.Fatalf("all-zero block read with last non-zero level %d, want -1", coded)
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
	writeCoeffs(enc, e, 0, c, 4)
	d := bits.NewDecoder(e.Bytes())
	got := make([]int32, 16)
	readCoeffs(dec, d, 0, got, 4)
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
		enc.CodeCoeffs(Rate(&est), 0, c, 8, lastNonZero(c))
		writeCoeffs(enc, e, 0, c, 8)
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
		writeCoeffs(enc, e, 0, c, 8)
	}
	dec := NewModel(true)
	d := bits.NewDecoder(e.Bytes())
	buf := make([]int32, 64)
	for range seqs {
		readCoeffs(dec, d, 0, buf, 8)
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
		Writer(e).Bool(true, &m.Skip)
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
			writeCoeffs(m, e, 0, c, 8)
		}
		return len(e.Bytes())
	}
	static, adapt := run(false), run(true)
	if adapt >= static {
		t.Errorf("adaptive (%dB) not better than static (%dB)", adapt, static)
	}
}

// --- the reference coefficient syntax ---------------------------------------

// refWriteCoeffs, refReadCoeffs and refCoeffCost are the three loops the
// coefficient walk replaced, kept as the reference CodeCoeffs is held to.

func refWriteCoeffs(m *Model, e *bits.Encoder, plane int, scanned []int32, n int) {
	total := n * n
	last := -1
	for i := total - 1; i >= 0; i-- {
		if scanned[i] != 0 {
			last = i
			break
		}
	}
	ctx := 0
	for i := 0; i < total; i++ {
		b := band(i)
		more := i <= last
		e.PutAdaptive(more, &m.NotEOB[plane][b][ctx])
		if !more {
			return
		}
		v := scanned[i]
		nz := v != 0
		e.PutAdaptive(nz, &m.NotZero[plane][b][ctx])
		var a int32
		if nz {
			neg := v < 0
			if neg {
				e.PutBit(1)
			} else {
				e.PutBit(0)
			}
			a = v
			if neg {
				a = -a
			}
			gt1 := a > 1
			e.PutAdaptive(gt1, &m.Gt1[plane][b][ctx])
			if gt1 {
				gt3 := a > 3
				e.PutAdaptive(gt3, &m.Gt3[plane][b][ctx])
				if gt3 {
					e.PutUE(uint32(a - 4))
				} else {
					e.PutBit(int(a - 2)) // a in {2,3}
				}
			}
		}
		ctx = magCtx(a)
	}
}

func refReadCoeffs(m *Model, d *bits.Decoder, plane int, scanned []int32, n int) (last int) {
	total := n * n
	clear(scanned[:total])
	last = -1
	ctx := 0
	for i := 0; i < total; i++ {
		b := band(i)
		if !d.GetAdaptive(&m.NotEOB[plane][b][ctx]) {
			return last
		}
		var a int32
		if d.GetAdaptive(&m.NotZero[plane][b][ctx]) {
			neg := d.GetBit() == 1
			switch {
			case !d.GetAdaptive(&m.Gt1[plane][b][ctx]):
				a = 1
			case d.GetAdaptive(&m.Gt3[plane][b][ctx]):
				a = int32(min(d.GetUE(), math.MaxInt32-4)) + 4
			default:
				a = int32(d.GetBit()) + 2
			}
			v := a
			if neg {
				v = -v
			}
			scanned[i] = v
			last = i
		}
		ctx = magCtx(a)
	}
	return last
}

func refCoeffCost(m *Model, plane int, scanned []int32, n int) uint32 {
	total := n * n
	last := -1
	for i := total - 1; i >= 0; i-- {
		if scanned[i] != 0 {
			last = i
			break
		}
	}
	var cost uint32
	ctx := 0
	for i := 0; i < total; i++ {
		b := band(i)
		more := i <= last
		cost += bits.BoolCost(more, m.NotEOB[plane][b][ctx].P)
		if !more {
			return cost
		}
		v := scanned[i]
		nz := v != 0
		cost += bits.BoolCost(nz, m.NotZero[plane][b][ctx].P)
		var a int32
		if nz {
			cost += 256 // sign
			a = v
			if a < 0 {
				a = -a
			}
			gt1 := a > 1
			cost += bits.BoolCost(gt1, m.Gt1[plane][b][ctx].P)
			if gt1 {
				gt3 := a > 3
				cost += bits.BoolCost(gt3, m.Gt3[plane][b][ctx].P)
				if gt3 {
					cost += bits.UECost(uint32(a - 4))
				} else {
					cost += 256
				}
			}
		}
		ctx = magCtx(a)
	}
	return cost
}

// syntaxLevels is a block of n×n levels in scan order that runs every
// branch of the syntax: zero runs, ±1..±3, escapes from 4 up to
// ±MaxAbsCoeff, and a tail of zeros at a random end-of-block (the whole
// block when end is 0).
func syntaxLevels(rng *rand.Rand, n int) []int32 {
	c := make([]int32, n*n)
	end := rng.Intn(n*n + 1)
	for i := range c[:end] {
		var a int32
		switch r := rng.Intn(16); {
		case r < 6: // zero
		case r < 12:
			a = 1 + rng.Int31n(3)
		case r < 15:
			a = 4 + rng.Int31n(1<<uint(rng.Intn(17)))
		default:
			a = transform.MaxAbsCoeff
		}
		if rng.Intn(2) == 0 {
			a = -a
		}
		c[i] = a
	}
	return c
}

// TestCoeffSyntaxMatchesReference holds CodeCoeffs to the three loops it
// replaced, block after block on one model per side: Rate's sum and
// Writer's bytes, then Reader's levels, last non-zero index and Overrun,
// and the model state after every block.
func TestCoeffSyntaxMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, n := range []int{4, 8, 16, 32} {
		for plane := 0; plane < numPlanes; plane++ {
			for _, adaptive := range []bool{false, true} {
				name := fmt.Sprintf("n=%d plane=%d adaptive=%v", n, plane, adaptive)
				blocks := make([][]int32, 24)
				for i := range blocks {
					blocks[i] = syntaxLevels(rng, n)
				}
				matchReference(t, name, blocks, plane, n, adaptive)
			}
		}
	}
}

func matchReference(t *testing.T, name string, blocks [][]int32, plane, n int, adaptive bool) {
	t.Helper()
	ref, walk := NewModel(adaptive), NewModel(adaptive)
	re, we := bits.NewEncoder(), bits.NewEncoder()
	scanned := make([]int32, n*n)
	for k, c := range blocks {
		last := lastNonZero(c)
		copy(scanned, c)
		var sum uint32
		if coded := walk.CodeCoeffs(Rate(&sum), plane, scanned, n, last); coded != last {
			t.Fatalf("%s block %d: Rate returned %d, want %d", name, k, coded, last)
		}
		if want := refCoeffCost(ref, plane, c, n); sum != want {
			t.Fatalf("%s block %d: Rate summed %d, reference %d", name, k, sum, want)
		}
		refWriteCoeffs(ref, re, plane, c, n)
		if coded := walk.CodeCoeffs(Writer(we), plane, scanned, n, last); coded != last {
			t.Fatalf("%s block %d: Writer returned %d, want %d", name, k, coded, last)
		}
		for i := range c {
			if scanned[i] != c[i] {
				t.Fatalf("%s block %d: writing changed level %d to %d from %d", name, k, i, scanned[i], c[i])
			}
		}
		if *walk != *ref {
			t.Fatalf("%s block %d: model after writing differs from the reference's", name, k)
		}
	}
	data := re.Bytes()
	if !bytes.Equal(we.Bytes(), data) {
		t.Fatalf("%s: Writer wrote %d bytes, the reference %d, or other bytes", name, len(we.Bytes()), len(data))
	}
	if err := readMatchesReference(data, plane, n, adaptive, len(blocks), blocks); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// readMatchesReference decodes count blocks from data with Reader and the
// reference reader, each on a fresh model, and reports the first block
// whose levels (or, with want set, the levels written), last non-zero
// index, Overrun or model state differ.
func readMatchesReference(data []byte, plane, n int, adaptive bool, count int, want [][]int32) error {
	ref, walk := NewModel(adaptive), NewModel(adaptive)
	rd, wd := bits.NewDecoder(data), bits.NewDecoder(data)
	exp, got := make([]int32, n*n), make([]int32, n*n)
	for k := 0; k < count; k++ {
		for i := range got {
			got[i] = 0x5eed // stale levels the walk must not need cleared
		}
		last := refReadCoeffs(ref, rd, plane, exp, n)
		if want != nil && !equalLevels(exp, want[k]) {
			return fmt.Errorf("block %d: the reference read other levels than were written", k)
		}
		coded := walk.CodeCoeffs(Reader(wd), plane, got, n, -1)
		if coded != last {
			return fmt.Errorf("block %d: Reader's last non-zero level %d, reference %d", k, coded, last)
		}
		if !equalLevels(got[:coded+1], exp[:coded+1]) {
			return fmt.Errorf("block %d: Reader's levels differ from the reference's", k)
		}
		if wd.Overrun() != rd.Overrun() {
			return fmt.Errorf("block %d: Overrun %v, reference %v", k, wd.Overrun(), rd.Overrun())
		}
		if *walk != *ref {
			return fmt.Errorf("block %d: model after reading differs from the reference's", k)
		}
	}
	return nil
}

func equalLevels(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// escapeNearLimit is a stream whose first level is the largest escape
// PutUE can write, 2^32−2, which both readers saturate to MaxInt32.
func escapeNearLimit(plane int, adaptive bool) []byte {
	m := NewModel(adaptive)
	e := bits.NewEncoder()
	e.PutAdaptive(true, &m.NotEOB[plane][0][0])
	e.PutAdaptive(true, &m.NotZero[plane][0][0])
	e.PutBit(0)
	e.PutAdaptive(true, &m.Gt1[plane][0][0])
	e.PutAdaptive(true, &m.Gt3[plane][0][0])
	e.PutUE(math.MaxUint32 - 1)
	e.PutAdaptive(false, &m.NotEOB[plane][band(1)][2]) // end of block
	return e.Bytes()
}

// coeffFuzzConfig maps a fuzz byte to a block size, plane class and
// model kind.
func coeffFuzzConfig(cfg byte) (n, plane int, adaptive bool) {
	return 4 << (cfg & 3), int(cfg >> 2 & 1), cfg>>3&1 == 1
}

// FuzzCoeffSyntax: on arbitrary bytes Reader reads the reference reader's
// levels, last non-zero index, Overrun and model state, block after
// block, escape saturation included.
func FuzzCoeffSyntax(f *testing.F) {
	f.Add(byte(0), []byte{})
	f.Add(byte(9), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(byte(6), []byte{0x80, 0x01, 0x7f, 0xfe, 0x00, 0x55, 0xaa, 0x12, 0x34, 0x56, 0x78, 0x9a})
	for _, cfg := range []byte{0, 13} {
		_, plane, adaptive := coeffFuzzConfig(cfg)
		f.Add(cfg, escapeNearLimit(plane, adaptive))
	}
	f.Fuzz(func(t *testing.T, cfg byte, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		n, plane, adaptive := coeffFuzzConfig(cfg)
		if err := readMatchesReference(data, plane, n, adaptive, 6, nil); err != nil {
			t.Fatal(err)
		}
	})
}
