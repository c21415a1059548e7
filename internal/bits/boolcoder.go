// Package bits provides the low-level entropy-coding substrate used by the
// codec: a binary range (arithmetic) coder in the style of the VP8/VP9
// boolean coder (RFC 6386 §7), adaptive probability contexts, plain MSB-first
// bit I/O, and Golomb/Rice integer codes.
//
// The boolean coder is the hardware "Entropy Coding" stage of the VCU encoder
// core pipeline (paper Fig. 3c); everything the codec emits ultimately passes
// through an Encoder, and the Decoder consumes it symmetrically.
package bits

// Prob is a probability that a boolean is false (zero), expressed in
// 1/256ths. A Prob of 128 means equiprobable. Valid range is [1, 255].
type Prob = uint8

// ProbHalf is the equiprobable probability used for raw (literal) bits.
const ProbHalf Prob = 128

// Encoder is a binary range encoder. The zero value is NOT ready for use;
// call NewEncoder.
type Encoder struct {
	buf      []byte
	rng      uint32 // current range, in [128, 255] after renormalization
	bottom   uint32 // low end of the coding interval
	bitCount int    // bits until the next byte is emitted
	bools    int    // number of booleans written (for cost accounting)
}

// NewEncoder returns an Encoder ready to accept booleans.
func NewEncoder() *Encoder {
	return &Encoder{rng: 255, bitCount: 24, buf: make([]byte, 0, 1024)}
}

// Reset discards all written data and restores the initial coder state,
// retaining the underlying buffer.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	e.rng = 255
	e.bottom = 0
	e.bitCount = 24
	e.bools = 0
}

// carry propagates an arithmetic-coding carry into the already-emitted bytes.
func (e *Encoder) carry() {
	i := len(e.buf) - 1
	for i >= 0 && e.buf[i] == 0xff {
		e.buf[i] = 0
		i--
	}
	// i < 0 cannot happen: the first emitted byte always has headroom
	// because bottom starts at zero.
	e.buf[i]++
}

// PutBool encodes one boolean with probability p that the value is false.
func (e *Encoder) PutBool(val bool, p Prob) {
	split := 1 + ((e.rng-1)*uint32(p))>>8
	if val {
		e.bottom += split
		e.rng -= split
	} else {
		e.rng = split
	}
	for e.rng < 128 {
		e.rng <<= 1
		if e.bottom&(1<<31) != 0 {
			e.carry()
		}
		e.bottom <<= 1
		e.bitCount--
		if e.bitCount == 0 {
			e.buf = append(e.buf, byte(e.bottom>>24))
			e.bottom &= (1 << 24) - 1
			e.bitCount = 8
		}
	}
	e.bools++
}

// PutBit encodes one raw bit at probability 1/2.
func (e *Encoder) PutBit(bit int) { e.PutBool(bit != 0, ProbHalf) }

// PutLiteral encodes an n-bit unsigned literal, most significant bit first.
func (e *Encoder) PutLiteral(v uint32, n int) {
	for i := n - 1; i >= 0; i-- {
		e.PutBit(int(v>>uint(i)) & 1)
	}
}

// Bools reports the number of booleans encoded so far.
func (e *Encoder) Bools() int { return e.bools }

// Bytes flushes the coder and returns the finished bitstream. The Encoder
// must not be used afterwards except via Reset.
func (e *Encoder) Bytes() []byte {
	// Push out every buffered bit. 32 half-probability zeros shift the
	// entire 32-bit bottom register into the output.
	for i := 0; i < 32; i++ {
		e.PutBool(false, ProbHalf)
	}
	return e.buf
}

// Decoder is the matching binary range decoder.
type Decoder struct {
	in       []byte
	pos      int
	value    uint32 // 16-bit sliding window over the bitstream
	rng      uint32
	bitCount int
	overrun  bool
}

// NewDecoder returns a Decoder reading from data. The Decoder does not
// retain ownership: data must not be mutated while decoding.
func NewDecoder(data []byte) *Decoder {
	d := &Decoder{}
	d.Reset(data)
	return d
}

// Reset re-points d at data, leaving it as NewDecoder(data) would.
func (d *Decoder) Reset(data []byte) {
	*d = Decoder{in: data, rng: 255}
	d.value = uint32(d.nextByte())<<8 | uint32(d.nextByte())
}

func (d *Decoder) nextByte() byte {
	if d.pos >= len(d.in) {
		// Reading past the end yields zero bits; record the overrun so
		// corrupt streams are detectable.
		d.overrun = true
		return 0
	}
	b := d.in[d.pos]
	d.pos++
	return b
}

// GetBool decodes one boolean that was encoded with probability p.
func (d *Decoder) GetBool(p Prob) bool {
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

// GetBit decodes one raw bit at probability 1/2.
func (d *Decoder) GetBit() int {
	if d.GetBool(ProbHalf) {
		return 1
	}
	return 0
}

// GetLiteral decodes an n-bit unsigned literal, MSB first.
func (d *Decoder) GetLiteral(n int) uint32 {
	var v uint32
	for i := 0; i < n; i++ {
		v = v<<1 | uint32(d.GetBit())
	}
	return v
}

// Overrun reports whether the decoder has consumed past the end of its
// input, which indicates a truncated or corrupt bitstream. Valid streams
// end with four flush bytes, so a decoder that reads exactly the symbols
// that were encoded never overruns.
func (d *Decoder) Overrun() bool { return d.overrun }
