package bits

// Exp-Golomb and signed-integer codes layered over the boolean coder.
// These are used for motion-vector residuals and coefficient magnitudes,
// where the distribution is sharply peaked at zero.

// PutUE encodes an unsigned integer with an order-0 exp-Golomb code over
// half-probability bits: a unary length prefix followed by that many raw
// bits. Values near zero cost the fewest bits.
func (e *Encoder) PutUE(v uint32) {
	n := 0
	for tmp := v + 1; tmp > 1; tmp >>= 1 {
		n++
	}
	for i := 0; i < n; i++ {
		e.PutBit(1)
	}
	e.PutBit(0)
	e.PutLiteral(v+1-(1<<uint(n)), n)
}

// GetUE decodes an order-0 exp-Golomb unsigned integer.
func (d *Decoder) GetUE() uint32 {
	n := 0
	for d.GetBit() == 1 {
		n++
		if n > 31 {
			return 0 // corrupt stream guard
		}
	}
	return (1 << uint(n)) + d.GetLiteral(n) - 1
}

// UECost returns the coding cost of PutUE(v) in 1/256-bit units.
func UECost(v uint32) uint32 {
	n := 0
	for tmp := v + 1; tmp > 1; tmp >>= 1 {
		n++
	}
	return uint32(2*n+1) * 256
}

// BitWriter is a plain MSB-first bit writer used by the lossless frame
// buffer compressor, where arithmetic coding would be too slow for the
// hardware's line-rate requirement (paper §3.2).
type BitWriter struct {
	buf  []byte
	cur  uint64
	nCur int // bits held in cur
}

// NewBitWriter returns an empty BitWriter.
func NewBitWriter() *BitWriter { return &BitWriter{buf: make([]byte, 0, 256)} }

// WriteBits writes the low n bits of v, MSB first. n must be <= 32.
func (w *BitWriter) WriteBits(v uint32, n int) {
	w.cur = w.cur<<uint(n) | uint64(v&((1<<uint(n))-1))
	w.nCur += n
	for w.nCur >= 8 {
		w.nCur -= 8
		w.buf = append(w.buf, byte(w.cur>>uint(w.nCur)))
	}
}

// WriteUnary writes v as v one-bits followed by a zero bit.
func (w *BitWriter) WriteUnary(v uint32) {
	for v >= 32 {
		w.WriteBits(0xffffffff, 32)
		v -= 32
	}
	w.WriteBits((1<<(v+1))-2, int(v+1))
}

// WriteRice writes v with a Rice code of parameter k.
func (w *BitWriter) WriteRice(v uint32, k uint) {
	w.WriteUnary(v >> k)
	if k > 0 {
		w.WriteBits(v, int(k))
	}
}

// Bytes pads the stream with zero bits to a byte boundary and returns it.
func (w *BitWriter) Bytes() []byte {
	if w.nCur > 0 {
		pad := 8 - w.nCur
		w.WriteBits(0, pad)
	}
	return w.buf
}

// BitLen reports the number of bits written so far.
func (w *BitWriter) BitLen() int { return len(w.buf)*8 + w.nCur }

// BitReader is the matching MSB-first bit reader.
type BitReader struct {
	buf     []byte
	pos     int // bit position
	overrun bool
}

// NewBitReader reads from data.
func NewBitReader(data []byte) *BitReader { return &BitReader{buf: data} }

// ReadBits reads n bits MSB first. Reading past the end returns zeros and
// sets the overrun flag.
func (r *BitReader) ReadBits(n int) uint32 {
	var v uint32
	for i := 0; i < n; i++ {
		v <<= 1
		byteIdx := r.pos >> 3
		if byteIdx >= len(r.buf) {
			r.overrun = true
			r.pos++
			continue
		}
		v |= uint32(r.buf[byteIdx]>>(7-uint(r.pos&7))) & 1
		r.pos++
	}
	return v
}

// ReadUnary reads a unary-coded value.
func (r *BitReader) ReadUnary() uint32 {
	var v uint32
	for r.ReadBits(1) == 1 {
		v++
		if r.overrun {
			return v
		}
	}
	return v
}

// ReadRice reads a Rice-coded value with parameter k.
func (r *BitReader) ReadRice(k uint) uint32 {
	q := r.ReadUnary()
	if k == 0 {
		return q
	}
	return q<<k | r.ReadBits(int(k))
}

// Overrun reports whether the reader consumed past the end of its input.
func (r *BitReader) Overrun() bool { return r.overrun }
