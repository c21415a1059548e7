package entropy

import (
	"math"

	"openvcu/internal/bits"
)

// --- partition tree -------------------------------------------------------

// WriteSplit codes a partition-split decision at the given tree depth.
func (m *Model) WriteSplit(e *bits.Encoder, depth int, split bool) {
	e.PutAdaptive(split, &m.Split[clampDepth(depth)])
}

// ReadSplit decodes a partition-split decision.
func (m *Model) ReadSplit(d *bits.Decoder, depth int) bool {
	return d.GetAdaptive(&m.Split[clampDepth(depth)])
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

// WriteSkip codes the skip flag (inter prediction with no residual).
func (m *Model) WriteSkip(e *bits.Encoder, skip bool) { e.PutAdaptive(skip, &m.Skip) }

// ReadSkip decodes the skip flag.
func (m *Model) ReadSkip(d *bits.Decoder) bool { return d.GetAdaptive(&m.Skip) }

// SkipCost estimates the skip flag cost.
func (m *Model) SkipCost(skip bool) uint32 { return bits.BoolCost(skip, m.Skip.P) }

// WriteIsInter codes whether the block is inter-predicted.
func (m *Model) WriteIsInter(e *bits.Encoder, inter bool) { e.PutAdaptive(inter, &m.IsInter) }

// ReadIsInter decodes the inter flag.
func (m *Model) ReadIsInter(d *bits.Decoder) bool { return d.GetAdaptive(&m.IsInter) }

// IsInterCost estimates the inter flag cost.
func (m *Model) IsInterCost(inter bool) uint32 { return bits.BoolCost(inter, m.IsInter.P) }

// WriteIntraMode codes one of four intra modes with a two-level tree.
func (m *Model) WriteIntraMode(e *bits.Encoder, mode int) {
	hi := mode >= 2
	e.PutAdaptive(hi, &m.IntraMode[0])
	if hi {
		e.PutAdaptive(mode == 3, &m.IntraMode[2])
	} else {
		e.PutAdaptive(mode == 1, &m.IntraMode[1])
	}
}

// ReadIntraMode decodes an intra mode.
func (m *Model) ReadIntraMode(d *bits.Decoder) int {
	if d.GetAdaptive(&m.IntraMode[0]) {
		if d.GetAdaptive(&m.IntraMode[2]) {
			return 3
		}
		return 2
	}
	if d.GetAdaptive(&m.IntraMode[1]) {
		return 1
	}
	return 0
}

// IntraModeCost estimates the cost of coding an intra mode.
func (m *Model) IntraModeCost(mode int) uint32 {
	hi := mode >= 2
	c := bits.BoolCost(hi, m.IntraMode[0].P)
	if hi {
		c += bits.BoolCost(mode == 3, m.IntraMode[2].P)
	} else {
		c += bits.BoolCost(mode == 1, m.IntraMode[1].P)
	}
	return c
}

// WriteRef codes a reference slot index in [0, 2].
func (m *Model) WriteRef(e *bits.Encoder, ref int) {
	e.PutAdaptive(ref != 0, &m.RefNonZero)
	if ref != 0 {
		e.PutAdaptive(ref == 2, &m.RefIsTwo)
	}
}

// ReadRef decodes a reference slot index.
func (m *Model) ReadRef(d *bits.Decoder) int {
	if !d.GetAdaptive(&m.RefNonZero) {
		return 0
	}
	if d.GetAdaptive(&m.RefIsTwo) {
		return 2
	}
	return 1
}

// RefCost estimates reference index cost.
func (m *Model) RefCost(ref int) uint32 {
	c := bits.BoolCost(ref != 0, m.RefNonZero.P)
	if ref != 0 {
		c += bits.BoolCost(ref == 2, m.RefIsTwo.P)
	}
	return c
}

// WriteCompound codes whether the block uses compound (two-reference)
// prediction.
func (m *Model) WriteCompound(e *bits.Encoder, comp bool) { e.PutAdaptive(comp, &m.Compound) }

// ReadCompound decodes the compound flag.
func (m *Model) ReadCompound(d *bits.Decoder) bool { return d.GetAdaptive(&m.Compound) }

// CompoundCost estimates the compound flag cost.
func (m *Model) CompoundCost(comp bool) uint32 { return bits.BoolCost(comp, m.Compound.P) }

// --- motion vectors -------------------------------------------------------

// WriteMVDiff codes a motion vector as a difference from its prediction,
// one component at a time: a zero flag, then sign and magnitude.
func (m *Model) WriteMVDiff(e *bits.Encoder, dx, dy int32) {
	for c, v := range [2]int32{dx, dy} {
		zero := v == 0
		e.PutAdaptive(zero, &m.MVZero[c])
		if zero {
			continue
		}
		neg := v < 0
		e.PutAdaptive(neg, &m.MVSign[c])
		if neg {
			v = -v
		}
		e.PutUE(uint32(v - 1))
	}
}

// ReadMVDiff decodes a motion vector difference.
func (m *Model) ReadMVDiff(d *bits.Decoder) (dx, dy int32) {
	out := [2]int32{}
	for c := 0; c < 2; c++ {
		if d.GetAdaptive(&m.MVZero[c]) {
			continue
		}
		neg := d.GetAdaptive(&m.MVSign[c])
		v := int32(d.GetUE()) + 1
		if neg {
			v = -v
		}
		out[c] = v
	}
	return out[0], out[1]
}

// MVDiffCost estimates the cost of coding an MV difference.
func (m *Model) MVDiffCost(dx, dy int32) uint32 {
	var cost uint32
	for c, v := range [2]int32{dx, dy} {
		zero := v == 0
		cost += bits.BoolCost(zero, m.MVZero[c].P)
		if zero {
			continue
		}
		cost += bits.BoolCost(v < 0, m.MVSign[c].P)
		if v < 0 {
			v = -v
		}
		cost += bits.UECost(uint32(v - 1))
	}
	return cost
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
	for i := range scanned[:total] {
		scanned[i] = 0
	}
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
