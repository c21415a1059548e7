// Package entropy implements the syntax layer of the bitstream: context-
// modeled coding of partition trees, block modes, motion vectors and
// transform coefficients over the boolean range coder. It is the software
// twin of the sequential-logic-heavy entropy stage of the encoder core
// pipeline (paper §3.2), including VP9-style backward probability
// adaptation ("per-frame probability adaptation") for the VP9-class
// profile and static contexts for the H.264-class profile.
//
// All of the syntax is written once per element, as a Code* walk over a
// Sink: Writer codes it, Reader decodes it with identical context
// updates, and Rate prices it without mutating any context (the RDO
// engine's rate term). CodeCoeffs is the coefficient walk; SplitCost is
// the partition search's pure query.
package entropy

import "openvcu/internal/bits"

// Model bundles bitstream dimensions.
const (
	numPlanes     = 2 // 0 = luma, 1 = chroma
	numBands      = 6
	numCoeffCtx   = 3
	numDepths     = 4
	numIntraProbs = 3
)

// Model holds every adaptive probability context for one frame. Encoder
// and decoder construct it identically at frame start and update it in
// lockstep, so no probabilities are transmitted.
type Model struct {
	Split                [numDepths]bits.AdaptiveProb
	Skip                 bits.AdaptiveProb
	IsInter              bits.AdaptiveProb
	IntraMode            [numIntraProbs]bits.AdaptiveProb
	RefNonZero, RefIsTwo bits.AdaptiveProb
	Compound             bits.AdaptiveProb
	MVZero               [2]bits.AdaptiveProb
	MVSign               [2]bits.AdaptiveProb

	NotEOB  [numPlanes][numBands][numCoeffCtx]bits.AdaptiveProb
	NotZero [numPlanes][numBands][numCoeffCtx]bits.AdaptiveProb
	Gt1     [numPlanes][numBands][numCoeffCtx]bits.AdaptiveProb
	Gt3     [numPlanes][numBands][numCoeffCtx]bits.AdaptiveProb
}

// NewModel returns the default-initialized model. adaptive=false freezes
// the contexts at their initial values (the H.264-class behavior).
func NewModel(adaptive bool) *Model {
	m := &Model{}
	m.Reset(adaptive)
	return m
}

// Reset restores m to the default-initialized state — identical to a
// fresh NewModel(adaptive) but without allocating, so the encoder's and
// decoder's tile coders can reuse one Model across frames.
func (m *Model) Reset(adaptive bool) {
	*m = Model{}
	rate := uint8(5)
	if !adaptive {
		rate = 0
	}
	set := func(p *bits.AdaptiveProb, v bits.Prob) { *p = bits.AdaptiveProb{P: v, Rate: rate} }
	for d := range m.Split {
		set(&m.Split[d], 160)
	}
	set(&m.Skip, 150)
	set(&m.IsInter, 80)
	for i := range m.IntraMode {
		set(&m.IntraMode[i], 128)
	}
	set(&m.RefNonZero, 180)
	set(&m.RefIsTwo, 128)
	set(&m.Compound, 200)
	for c := 0; c < 2; c++ {
		set(&m.MVZero[c], 140)
		set(&m.MVSign[c], 128)
	}
	for p := 0; p < numPlanes; p++ {
		for b := 0; b < numBands; b++ {
			for c := 0; c < numCoeffCtx; c++ {
				// Later bands are increasingly likely to be EOB/zero.
				set(&m.NotEOB[p][b][c], bits.Prob(200-20*b))
				set(&m.NotZero[p][b][c], bits.Prob(120-10*b))
				set(&m.Gt1[p][b][c], 100)
				set(&m.Gt3[p][b][c], 100)
			}
		}
	}
}

// band maps a scan position to a coefficient band.
func band(i int) int {
	switch {
	case i == 0:
		return 0
	case i <= 2:
		return 1
	case i <= 5:
		return 2
	case i <= 9:
		return 3
	case i <= 20:
		return 4
	default:
		return 5
	}
}

func magCtx(prevAbs int32) int {
	if prevAbs > 2 {
		return 2
	}
	return int(prevAbs)
}
