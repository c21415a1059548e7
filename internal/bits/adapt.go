package bits

// AdaptiveProb is a backward-adapting probability context. Encoder and
// decoder update it identically after each coded boolean, so no probability
// tables need to be transmitted (the VP9-class profile relies on this; the
// H.264-class profile uses static contexts instead).
type AdaptiveProb struct {
	P Prob
	// Rate is the adaptation shift: larger values adapt more slowly.
	Rate uint8
}

// NewAdaptiveProb returns a context initialized at p with the default
// adaptation rate.
func NewAdaptiveProb(p Prob) AdaptiveProb { return AdaptiveProb{P: p, Rate: 5} }

// Update moves the probability toward the observed value.
func (a *AdaptiveProb) Update(val bool) {
	if a.Rate == 0 {
		return // static context
	}
	if val {
		a.P -= a.P >> a.Rate
	} else {
		a.P += (255 - a.P) >> a.Rate
	}
	if a.P == 0 {
		a.P = 1
	}
}

// PutAdaptive encodes val against the context and updates it.
func (e *Encoder) PutAdaptive(val bool, a *AdaptiveProb) {
	e.PutBool(val, a.P)
	a.Update(val)
}

// GetAdaptive decodes a boolean against the context and updates it.
func (d *Decoder) GetAdaptive(a *AdaptiveProb) bool {
	d.Refill()
	v := d.Decide(a.P)
	a.Update(v)
	return v
}

// boolCostTable[p] is the cost, in 1/256 bit units, of coding a FALSE
// boolean at probability p. The cost of TRUE at p is boolCostTable[255-p]
// (approximately -log2((256-p)/256)).
var boolCostTable = buildBoolCostTable()

func buildBoolCostTable() [256]uint32 {
	var t [256]uint32
	// cost(p) = -log2(p/256) * 256, computed in fixed point without
	// floating point at runtime (log2 via iterative squaring).
	for p := 1; p < 256; p++ {
		t[p] = fixedNegLog2(uint32(p))
	}
	t[0] = t[1]
	return t
}

// fixedNegLog2 returns approximately -log2(p/256)*256 for p in [1,255]
// using integer arithmetic (binary logarithm by repeated squaring).
func fixedNegLog2(p uint32) uint32 {
	// Normalize: p/256 = m * 2^-shift with m in [0.5, 1).
	shift := uint32(0)
	x := p << 8 // Q16 fixed point of p/256
	for x < 1<<15 {
		x <<= 1
		shift++
	}
	// y = 2m in [1, 2) as Q16; frac accumulates 8 bits of log2(y).
	y := uint64(x) << 1
	var frac uint32
	for i := 0; i < 8; i++ {
		y = (y * y) >> 16
		frac <<= 1
		if y >= 1<<17 {
			frac |= 1
			y >>= 1
		}
	}
	// -log2(p/256) = shift - log2(m) = shift + 1 - log2(y).
	return (shift+1)*256 - frac
}

// BoolCost returns the cost in 1/256-bit units of coding val at prob p.
func BoolCost(val bool, p Prob) uint32 {
	if val {
		return boolCostTable[255-p]
	}
	return boolCostTable[p]
}
