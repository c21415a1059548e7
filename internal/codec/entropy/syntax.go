package entropy

import (
	"math"

	"openvcu/internal/bits"
)

// --- the sink ---------------------------------------------------------------

// Sink is what a Code* walk does with each symbol: the walk passes each
// symbol's value in and codes the one returned, so one walk writes, reads
// or prices the syntax by the Sink it is given. Writer and Reader adapt
// the contexts identically; Rate touches none. Values go in and out,
// never pointers: a pointer to the caller's variable would make it escape
// at every call.
//
// Sink is a concrete type, not an interface or a type parameter: either
// of those makes every symbol an indirect call and lets the sink's
// pointers escape, an allocation per walk. A concrete Sink keeps one
// direct call per symbol and a Rate sum on the caller's stack. Reading,
// that call is all: the range decoder's Refill and Decide inline into
// Bool and Bit, and only the byte load behind Refill is a call, about
// once per five stream bytes (scripts/check.sh fails if Decide stops
// inlining into Bool).
type Sink struct {
	e   *bits.Encoder
	d   *bits.Decoder
	sum *uint32
}

// Writer returns the Sink that writes each symbol to e.
func Writer(e *bits.Encoder) Sink { return Sink{e: e} }

// Reader returns the Sink that ignores each value passed in and returns
// the one decoded from d.
func Reader(d *bits.Decoder) Sink { return Sink{d: d} }

// Rate returns the Sink that adds each symbol's estimated cost (1/256-bit
// units) to *sum — the RDO rate term.
func Rate(sum *uint32) Sink { return Sink{sum: sum} }

// Bool codes v under the context a and returns the value coded.
func (s Sink) Bool(v bool, a *bits.AdaptiveProb) bool {
	switch {
	case s.d != nil:
		s.d.Refill()
		v = s.d.Decide(a.P)
	case s.e != nil:
		s.e.PutBool(v, a.P)
	default:
		*s.sum += bits.BoolCost(v, a.P)
		return v
	}
	a.Update(v)
	return v
}

// Bit codes v as a raw bit at probability one half, priced at one bit.
func (s Sink) Bit(v bool) bool {
	switch {
	case s.d != nil:
		s.d.Refill()
		return s.d.Decide(bits.ProbHalf)
	case s.e != nil:
		s.e.PutBool(v, bits.ProbHalf)
	default:
		*s.sum += 256
	}
	return v
}

// UE codes v as an unsigned Exp-Golomb code and returns the value coded.
func (s Sink) UE(v uint32) uint32 {
	switch {
	case s.d != nil:
		return s.d.GetUE()
	case s.e != nil:
		s.e.PutUE(v)
	default:
		*s.sum += bits.UECost(v)
	}
	return v
}

// --- partition tree -------------------------------------------------------

// CodeSplit codes a partition-split decision at the given tree depth.
func (m *Model) CodeSplit(s Sink, depth int, split bool) bool {
	return s.Bool(split, &m.Split[clampDepth(depth)])
}

// SplitCost estimates the cost of a split decision in 1/256-bit units.
func (m *Model) SplitCost(depth int, split bool) uint32 {
	return bits.BoolCost(split, m.Split[clampDepth(depth)].P)
}

func clampDepth(d int) int {
	if d < 0 {
		return 0
	}
	if d >= numDepths {
		return numDepths - 1
	}
	return d
}

// --- block mode syntax ----------------------------------------------------

// CodeIntraMode codes one of four intra modes with a two-level tree.
func (m *Model) CodeIntraMode(s Sink, mode int) int {
	if s.Bool(mode >= 2, &m.IntraMode[0]) {
		if s.Bool(mode == 3, &m.IntraMode[2]) {
			return 3
		}
		return 2
	}
	if s.Bool(mode == 1, &m.IntraMode[1]) {
		return 1
	}
	return 0
}

// CodeRef codes a reference slot index in [0, 2].
func (m *Model) CodeRef(s Sink, ref int) int {
	if !s.Bool(ref != 0, &m.RefNonZero) {
		return 0
	}
	if s.Bool(ref == 2, &m.RefIsTwo) {
		return 2
	}
	return 1
}

// --- motion vectors -------------------------------------------------------

// CodeMVDiff codes a motion vector as a difference from its prediction,
// one component at a time: a zero flag, then sign and magnitude.
func (m *Model) CodeMVDiff(s Sink, dx, dy int32) (int32, int32) {
	d := [2]int32{dx, dy}
	for c, v := range d {
		if s.Bool(v == 0, &m.MVZero[c]) {
			d[c] = 0
			continue
		}
		neg := s.Bool(v < 0, &m.MVSign[c])
		if v < 0 {
			v = -v
		}
		v = int32(s.UE(uint32(v-1))) + 1
		if neg {
			v = -v
		}
		d[c] = v
	}
	return d[0], d[1]
}

// --- transform coefficients -------------------------------------------------

// CodeCoeffs codes the scan-ordered levels of one n×n transform block of
// the plane class (0 = luma, 1 = chroma): per position a not-end-of-block
// flag, then a not-zero flag, and for a non-zero level its sign, >1, >3
// and either the low bit of a 2 or 3 or the escape |level|−4. Writing or
// pricing, last is the scan index of the last non-zero level of scanned
// (-1: none) and the block ends after it; reading ignores last and the
// contents of scanned. The walk stores every level it codes in scanned,
// up to the end-of-block, and returns the scan index of the last one
// coded as non-zero: every level beyond it is zero, whatever scanned
// holds there.
func (m *Model) CodeCoeffs(s Sink, plane int, scanned []int32, n, last int) (coded int) {
	coded = -1
	ctx := 0
	for i := range n * n {
		b := band(i)
		if !s.Bool(i <= last, &m.NotEOB[plane][b][ctx]) {
			break
		}
		v := scanned[i]
		var a int32
		if s.Bool(v != 0, &m.NotZero[plane][b][ctx]) {
			neg := s.Bit(v < 0)
			a = m.codeMagnitude(s, plane, b, ctx, max(v, -v))
			v = a
			if neg {
				v = -a
			}
			coded = i
		} else {
			v = 0
		}
		scanned[i] = v
		ctx = magCtx(a)
	}
	return coded
}

// codeMagnitude codes the magnitude a >= 1 of a non-zero level and
// returns the one coded.
func (m *Model) codeMagnitude(s Sink, plane, b, ctx int, a int32) int32 {
	if !s.Bool(a > 1, &m.Gt1[plane][b][ctx]) {
		return 1
	}
	if !s.Bool(a > 3, &m.Gt3[plane][b][ctx]) {
		if s.Bit(a == 3) {
			return 3
		}
		return 2
	}
	// A corrupt stream can carry an escape near 2^32; saturate so the
	// magnitude (and the context derived from it) stays >= 0.
	return int32(min(s.UE(uint32(a-4)), math.MaxInt32-4)) + 4
}
