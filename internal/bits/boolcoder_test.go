package bits

import (
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
