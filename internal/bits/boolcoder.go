// Package bits provides the low-level entropy-coding substrate used by the
// codec: a binary range (arithmetic) coder in the style of the VP8/VP9
// boolean coder (RFC 6386 §7), adaptive probability contexts, plain MSB-first
// bit I/O, and Golomb/Rice integer codes.
//
// The boolean coder is the hardware "Entropy Coding" stage of the VCU encoder
// core pipeline (paper Fig. 3c); everything the codec emits ultimately passes
// through an Encoder, and the Decoder consumes it symmetrically.
package bits

import "encoding/binary"

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

// Decoder is the matching binary range decoder. It holds the bit-serial
// decoder's 32-bit value in the top half of a 64-bit window and the
// stream bytes that follow below it, so a boolean renormalizes with one
// table lookup and one shift, and bytes are loaded only when the window
// runs low. The top 16 bits are zero on a valid stream; on a corrupt one
// they carry what the bit-serial value carried, so both decoders return
// the same symbols on any input.
type Decoder struct {
	in  []byte
	pos int    // bytes loaded into win, counting zeros read past the end
	win uint64 // bit-serial value << 32 | the stream bytes after it
	// bits is the number of valid bits at the top of win, the 16 above
	// the stream included. The bits below them are zero or the leading
	// bits of in[pos], which the next load ORs in again at the same place.
	bits int
	rng  uint32
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
	*d = Decoder{in: data, bits: 16, rng: 255}
}

// normShift[r] is the left shift that brings a range r in [1, 255] back
// to [128, 255].
var normShift = func() (t [256]uint8) {
	for r := 1; r < 256; r++ {
		for v := r; v < 128; v <<= 1 {
			t[r]++
		}
	}
	return
}()

// fill loads bytes below the valid bits of the window until at most
// seven bits are left free. Past the end of the input it loads zeros,
// as the bit-serial decoder reads zero bytes there. It stays out of
// line so that Refill inlines.
//
//go:noinline
func (d *Decoder) fill() {
	if d.pos+8 <= len(d.in) {
		d.win |= binary.BigEndian.Uint64(d.in[d.pos:]) >> uint(d.bits)
		n := (64 - d.bits) >> 3
		d.pos += n
		d.bits += n << 3
		return
	}
	for ; d.bits <= 56; d.bits += 8 {
		if d.pos < len(d.in) {
			d.win |= uint64(d.in[d.pos]) << uint(56-d.bits)
		}
		d.pos++
	}
}

// GetBool decodes one boolean that was encoded with probability p.
func (d *Decoder) GetBool(p Prob) bool {
	d.Refill()
	return d.Decide(p)
}

// Refill loads stream bytes into the window when it holds fewer than
// the 24 bits Decide compares. The load itself (fill) stays out of line
// and runs about once per five stream bytes, so Refill and Decide both
// inline into their caller, which then decodes a symbol without a call.
func (d *Decoder) Refill() {
	if d.bits < 24 {
		d.fill()
	}
}

// Decide decodes one boolean encoded with probability p: the decision
// and the renormalization, without the load. It reads the value's bits
// 8..31, the top 24 of win, so Refill must run before each Decide; that
// is GetBool.
func (d *Decoder) Decide(p Prob) bool {
	split := 1 + ((d.rng-1)*uint32(p))>>8
	big := uint64(split) << 40
	ret := d.win >= big
	if ret {
		d.rng -= split
		d.win -= big
	} else {
		d.rng = split
	}
	s := normShift[uint8(d.rng)]
	d.rng <<= s
	d.win <<= s
	d.bits -= int(s)
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
// that were encoded never overruns. The bytes consumed are those a
// bit-serial decoder would have taken: two to start, then one per eight
// renormalizing shifts; 8·pos − (bits − 16) is the number of shifts so
// far.
func (d *Decoder) Overrun() bool { return 2+(8*d.pos-d.bits+16)/8 > len(d.in) }
