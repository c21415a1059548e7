package entropy

import (
	"math"

	"openvcu/internal/bits"
)

// --- the symbol walk ------------------------------------------------------

// Symbols is one way to walk the block-mode syntax: a Code* function
// passes each symbol's value in and codes the one returned, so the same
// function writes, reads or prices the syntax by the Symbols it is given.
// Values go in and out, never pointers: a pointer to the caller's
// variable would make it escape at every call.
type Symbols interface {
	// Bool codes v under the context a and returns the value coded.
	Bool(v bool, a *bits.AdaptiveProb) bool
	// UE codes v as an unsigned Exp-Golomb code and returns the value
	// coded.
	UE(v uint32) uint32
}

// Writer writes each symbol to E and returns it, adapting the contexts.
type Writer struct{ E *bits.Encoder }

func (w Writer) Bool(v bool, a *bits.AdaptiveProb) bool { w.E.PutAdaptive(v, a); return v }
func (w Writer) UE(v uint32) uint32                     { w.E.PutUE(v); return v }

// Reader ignores each value passed in and returns the one decoded from
// D, adapting the contexts exactly as Writer does.
type Reader struct{ D *bits.Decoder }

func (r Reader) Bool(_ bool, a *bits.AdaptiveProb) bool { return r.D.GetAdaptive(a) }
func (r Reader) UE(uint32) uint32                       { return r.D.GetUE() }

// Rate adds each symbol's estimated cost (1/256-bit units) to N and
// returns it, touching no context — the RDO rate term.
type Rate struct{ N uint32 }

func (r *Rate) Bool(v bool, a *bits.AdaptiveProb) bool { r.N += bits.BoolCost(v, a.P); return v }
func (r *Rate) UE(v uint32) uint32                     { r.N += bits.UECost(v); return v }

// --- partition tree -------------------------------------------------------

// CodeSplit codes a partition-split decision at the given tree depth.
func (m *Model) CodeSplit(s Symbols, depth int, split bool) bool {
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
func (m *Model) CodeIntraMode(s Symbols, mode int) int {
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
func (m *Model) CodeRef(s Symbols, ref int) int {
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
func (m *Model) CodeMVDiff(s Symbols, dx, dy int32) (int32, int32) {
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

// WriteCoeffs codes a scan-ordered coefficient vector of n*n levels for
// the given plane class (0 = luma, 1 = chroma).
func (m *Model) WriteCoeffs(e *bits.Encoder, plane int, scanned []int32, n int) {
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
			e.PutBit(boolBit(neg))
			a = v
			if neg {
				a = -a
			}
			m.writeMagnitude(e, plane, b, ctx, a)
		}
		ctx = magCtx(a)
	}
}

func (m *Model) writeMagnitude(e *bits.Encoder, plane, b, ctx int, a int32) {
	gt1 := a > 1
	e.PutAdaptive(gt1, &m.Gt1[plane][b][ctx])
	if !gt1 {
		return
	}
	gt3 := a > 3
	e.PutAdaptive(gt3, &m.Gt3[plane][b][ctx])
	if gt3 {
		e.PutUE(uint32(a - 4))
	} else {
		e.PutBit(int(a - 2)) // a in {2,3}
	}
}

// ReadCoeffs decodes a coefficient vector into scanned (length >= n*n)
// and returns the index of the last level coded as non-zero, -1 if there
// is none: every level beyond it is zero.
func (m *Model) ReadCoeffs(d *bits.Decoder, plane int, scanned []int32, n int) (last int) {
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
			a = m.readMagnitude(d, plane, b, ctx)
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

func (m *Model) readMagnitude(d *bits.Decoder, plane, b, ctx int) int32 {
	if !d.GetAdaptive(&m.Gt1[plane][b][ctx]) {
		return 1
	}
	if d.GetAdaptive(&m.Gt3[plane][b][ctx]) {
		// A corrupt stream can carry an escape near 2^32; saturate so
		// the magnitude (and the context derived from it) stays >= 0.
		return int32(min(d.GetUE(), math.MaxInt32-4)) + 4
	}
	return int32(d.GetBit()) + 2
}

// CoeffCost estimates the cost of coding the coefficient vector without
// touching the contexts — the RDO rate term.
func (m *Model) CoeffCost(plane int, scanned []int32, n int) uint32 {
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

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}
