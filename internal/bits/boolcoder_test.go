package bits

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBoolRoundTripFixedProb(t *testing.T) {
	e := NewEncoder()
	vals := []bool{true, false, true, true, false, false, false, true}
	for _, v := range vals {
		e.PutBool(v, 200)
	}
	data := e.Bytes()
	d := NewDecoder(data)
	for i, want := range vals {
		if got := d.GetBool(200); got != want {
			t.Fatalf("bool %d: got %v want %v", i, got, want)
		}
	}
	if d.Overrun() {
		t.Fatal("decoder overran valid stream")
	}
}

func TestBoolRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(5000)
		vals := make([]bool, n)
		probs := make([]Prob, n)
		for i := range vals {
			vals[i] = rng.Intn(2) == 1
			probs[i] = Prob(1 + rng.Intn(255))
		}
		e := NewEncoder()
		for i := range vals {
			e.PutBool(vals[i], probs[i])
		}
		data := e.Bytes()
		d := NewDecoder(data)
		for i := range vals {
			if got := d.GetBool(probs[i]); got != vals[i] {
				t.Fatalf("trial %d bool %d mismatch", trial, i)
			}
		}
	}
}

func TestBoolCompression(t *testing.T) {
	// 10000 'false' booleans at p=250 should compress far below 10000 bits.
	e := NewEncoder()
	for i := 0; i < 10000; i++ {
		e.PutBool(false, 250)
	}
	data := e.Bytes()
	if len(data) > 200 {
		t.Errorf("skewed stream compressed to %d bytes, want < 200", len(data))
	}
	d := NewDecoder(data)
	for i := 0; i < 10000; i++ {
		if d.GetBool(250) {
			t.Fatalf("bool %d decoded true", i)
		}
	}
}

func TestLiteralRoundTrip(t *testing.T) {
	e := NewEncoder()
	want := []struct {
		v uint32
		n int
	}{{0, 1}, {1, 1}, {5, 3}, {255, 8}, {1 << 15, 16}, {0xdeadbeef & 0xffffff, 24}}
	for _, w := range want {
		e.PutLiteral(w.v, w.n)
	}
	d := NewDecoder(e.Bytes())
	for _, w := range want {
		if got := d.GetLiteral(w.n); got != w.v {
			t.Fatalf("literal %d-bit: got %d want %d", w.n, got, w.v)
		}
	}
}

func TestAdaptiveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]bool, 4000)
	for i := range vals {
		vals[i] = rng.Intn(10) == 0 // skewed
	}
	e := NewEncoder()
	encCtx := NewAdaptiveProb(128)
	for _, v := range vals {
		e.PutAdaptive(v, &encCtx)
	}
	data := e.Bytes()
	d := NewDecoder(data)
	decCtx := NewAdaptiveProb(128)
	for i, want := range vals {
		if got := d.GetAdaptive(&decCtx); got != want {
			t.Fatalf("adaptive bool %d mismatch", i)
		}
	}
	if encCtx.P != decCtx.P {
		t.Fatalf("contexts diverged: enc %d dec %d", encCtx.P, decCtx.P)
	}
	// Adaptation should have learned the skew: 90% false => P > 128.
	if encCtx.P <= 128 {
		t.Errorf("context failed to adapt to skewed input: P=%d", encCtx.P)
	}
}

func TestAdaptiveBeatsHalfProbOnSkewedData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]bool, 20000)
	for i := range vals {
		vals[i] = rng.Intn(16) == 0
	}
	raw := NewEncoder()
	for _, v := range vals {
		raw.PutBool(v, ProbHalf)
	}
	adaptive := NewEncoder()
	ctx := NewAdaptiveProb(128)
	for _, v := range vals {
		adaptive.PutAdaptive(v, &ctx)
	}
	rawLen, adLen := len(raw.Bytes()), len(adaptive.Bytes())
	if adLen*2 >= rawLen {
		t.Errorf("adaptive coding (%dB) should be <50%% of raw (%dB)", adLen, rawLen)
	}
}

func TestUESERoundTrip(t *testing.T) {
	f := func(vs []uint32) bool {
		e := NewEncoder()
		for _, v := range vs {
			e.PutUE(v % (1 << 20))
		}
		d := NewDecoder(e.Bytes())
		for _, v := range vs {
			if d.GetUE() != v%(1<<20) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBoolCostMonotonic(t *testing.T) {
	// Coding a false bool gets cheaper as p (prob of false) rises.
	for p := 2; p < 256; p++ {
		if boolCostTable[p] > boolCostTable[p-1] {
			t.Fatalf("cost table not monotonic at p=%d: %d > %d",
				p, boolCostTable[p], boolCostTable[p-1])
		}
	}
	if got := BoolCost(false, 128); got < 240 || got > 272 {
		t.Errorf("cost of p=128 bool = %d/256 bits, want ~256", got)
	}
	if got := BoolCost(false, 64); got < 480 || got > 544 {
		t.Errorf("cost of false at p=64 = %d/256 bits, want ~512 (2 bits)", got)
	}
}

func TestCostMatchesActualSize(t *testing.T) {
	// The modeled cost should track the real encoded size within ~2%.
	rng := rand.New(rand.NewSource(11))
	e := NewEncoder()
	var modeled uint32
	for i := 0; i < 50000; i++ {
		p := Prob(1 + rng.Intn(255))
		v := rng.Intn(4) == 0
		modeled += BoolCost(v, p)
		e.PutBool(v, p)
	}
	actualBits := len(e.Bytes()) * 8
	modeledBits := int(modeled / 256)
	diff := actualBits - modeledBits
	if diff < 0 {
		diff = -diff
	}
	if diff > actualBits/50+64 {
		t.Errorf("modeled %d bits vs actual %d bits", modeledBits, actualBits)
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder()
	e.PutBool(true, 30)
	first := append([]byte(nil), e.Bytes()...)
	e.Reset()
	e.PutBool(true, 30)
	second := e.Bytes()
	if string(first) != string(second) {
		t.Error("reset encoder produced different bytes")
	}
}

func TestDecoderOverrunDetection(t *testing.T) {
	e := NewEncoder()
	for i := 0; i < 100; i++ {
		e.PutBool(true, 128)
	}
	data := e.Bytes()
	d := NewDecoder(data[:len(data)/4]) // truncate
	for i := 0; i < 100; i++ {
		d.GetBool(128)
	}
	if !d.Overrun() {
		t.Error("truncated stream not flagged as overrun")
	}
}

func TestCarryPropagation(t *testing.T) {
	// Force long runs of 0xff bytes in the output so the carry walk runs.
	e := NewEncoder()
	for i := 0; i < 100000; i++ {
		// alternating extreme probabilities trigger many renormalizations
		e.PutBool(i%17 != 0, 2)
		e.PutBool(i%23 == 0, 254)
	}
	data := e.Bytes()
	d := NewDecoder(data)
	for i := 0; i < 100000; i++ {
		if d.GetBool(2) != (i%17 != 0) {
			t.Fatalf("carry corruption at %d (a)", i)
		}
		if d.GetBool(254) != (i%23 == 0) {
			t.Fatalf("carry corruption at %d (b)", i)
		}
	}
}

// serialDecoder is the bit-serial range decoder the windowed Decoder
// replaced: a 16-bit value, one renormalizing shift at a time, a byte
// read every eight shifts. It is the reference the Decoder is held to.
type serialDecoder struct {
	in       []byte
	pos      int
	value    uint32
	rng      uint32
	bitCount int
	overrun  bool
}

func newSerialDecoder(data []byte) *serialDecoder {
	d := &serialDecoder{in: data, rng: 255}
	d.value = uint32(d.nextByte())<<8 | uint32(d.nextByte())
	return d
}

func (d *serialDecoder) nextByte() byte {
	if d.pos >= len(d.in) {
		d.overrun = true
		return 0
	}
	b := d.in[d.pos]
	d.pos++
	return b
}

func (d *serialDecoder) GetBool(p Prob) bool {
	split := 1 + ((d.rng-1)*uint32(p))>>8
	bigSplit := split << 8
	var ret bool
	if d.value >= bigSplit {
		ret = true
		d.rng -= split
		d.value -= bigSplit
	} else {
		d.rng = split
	}
	for d.rng < 128 {
		d.value <<= 1
		d.rng <<= 1
		d.bitCount++
		if d.bitCount == 8 {
			d.bitCount = 0
			d.value |= uint32(d.nextByte())
		}
	}
	return ret
}

// matchSerial decodes one boolean per entry of probs (each byte mapped
// into [1, 255]) from every prefix of data with the Decoder and the
// bit-serial reference, and reports the first symbol or Overrun that
// differs.
func matchSerial(data, probs []byte) error {
	for l := 0; l <= len(data); l++ {
		in := data[:l]
		d, ref := NewDecoder(in), newSerialDecoder(in)
		for i, b := range probs {
			p := Prob(1 + b%255)
			got, want := d.GetBool(p), ref.GetBool(p)
			if got != want {
				return fmt.Errorf("prefix %d symbol %d at p=%d: got %v, want %v", l, i, p, got, want)
			}
			if d.Overrun() != ref.overrun {
				return fmt.Errorf("prefix %d after symbol %d: Overrun %v, want %v", l, i, d.Overrun(), ref.overrun)
			}
		}
	}
	return nil
}

// TestBoolDecoderMatchesBitSerial holds the windowed decoder to the
// bit-serial one on real streams at extreme and random probabilities,
// every prefix of each, and on random bytes.
func TestBoolDecoderMatchesBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(400)
		probs := make([]byte, n)
		e := NewEncoder()
		for i := range probs {
			switch trial % 4 {
			case 0:
				probs[i] = 0 // p = 1
			case 1:
				probs[i] = 254 // p = 255
			default:
				probs[i] = byte(rng.Intn(256))
			}
			e.PutBool(rng.Intn(2) == 1, Prob(1+probs[i]%255))
		}
		data := e.Bytes()
		switch trial % 8 {
		case 3: // value above the range from the first byte on
			for i := range data {
				data[i] = 0xff
			}
		case 7:
			rng.Read(data)
		}
		// Decode past the symbols written, into the overrun.
		probs = append(probs, probs...)
		if err := matchSerial(data, probs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// FuzzBoolDecoderMatchesBitSerial: on arbitrary bytes and probabilities
// the windowed decoder returns the bit-serial decoder's symbols and
// Overrun, at every prefix length of the input.
func FuzzBoolDecoderMatchesBitSerial(f *testing.F) {
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{0, 254, 127, 0, 0, 0, 0, 0})
	f.Add([]byte{0x80, 0x01, 0x7f, 0xfe, 0x00, 0x55, 0xaa, 0x12, 0x34, 0x56, 0x78}, []byte{3, 200, 99, 1, 254, 128, 7, 7, 7, 7, 7, 7})
	// Refills that start in the input's last 8 bytes, where fill loads
	// byte by byte: 10 to 17 bytes, read at p = 1 and p = 255, whose
	// renormalizations shift up to 7 bits a symbol, so the window runs
	// low at every offset of the tail across the prefixes.
	f.Add([]byte{0x9c, 0x3a, 0x51, 0xe7, 0x08, 0xc4, 0x6d, 0xb2, 0x2f, 0x93, 0x7e, 0x15, 0xd8, 0x41, 0xa6, 0x0b, 0xf3},
		[]byte{0, 254, 0, 254, 0, 0, 254, 254, 0, 0, 0, 254, 254, 254, 0, 0, 0, 0, 254, 254, 254, 254, 0, 0, 0, 0, 0,
			254, 254, 254, 254, 254, 0, 0, 0, 0, 0, 0, 254, 254, 254, 254, 254, 254, 0, 0, 0, 0, 0, 0, 0})
	// Inputs that end in runs of 0xff: the value sits above the range as
	// the last real bytes load, and the zeros read past the end follow
	// them into the window.
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		[]byte{128, 1, 255, 64, 192, 0, 254, 128, 128, 1, 1, 1, 254, 254, 254, 127, 127, 127, 127, 3, 250, 250, 250, 9})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0xff, 0xff, 0xff},
		[]byte{254, 254, 254, 254, 254, 254, 254, 254, 0, 0, 0, 0, 0, 0, 0, 0, 128, 128, 128, 128, 128, 128, 128, 128})
	f.Fuzz(func(t *testing.T, data, probs []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		if len(probs) > 512 {
			probs = probs[:512]
		}
		if err := matchSerial(data, probs); err != nil {
			t.Fatal(err)
		}
	})
}

// boolBench is a stream of 200k booleans at random probabilities, with
// those probabilities.
func boolBench() ([]byte, []Prob) {
	rng := rand.New(rand.NewSource(9))
	probs := make([]Prob, 200000)
	e := NewEncoder()
	for i := range probs {
		probs[i] = Prob(1 + rng.Intn(255))
		e.PutBool(rng.Intn(256) >= int(probs[i]), probs[i])
	}
	return e.Bytes(), probs
}

// BenchmarkBoolDecode times the windowed decoder over boolBench's
// stream; BenchmarkBoolDecodeBitSerial the reference over the same.
func BenchmarkBoolDecode(b *testing.B) {
	data, probs := boolBench()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(data)
		for _, p := range probs {
			d.GetBool(p)
		}
	}
}

func BenchmarkBoolDecodeBitSerial(b *testing.B) {
	data, probs := boolBench()
	for i := 0; i < b.N; i++ {
		d := newSerialDecoder(data)
		for _, p := range probs {
			d.GetBool(p)
		}
	}
}
