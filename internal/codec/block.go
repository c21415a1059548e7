package codec

import (
	"openvcu/internal/codec/entropy"
	"openvcu/internal/codec/motion"
	"openvcu/internal/codec/predict"
	"openvcu/internal/video"
)

// blockChoice is one prediction decision for a leaf block.
type blockChoice struct {
	inter     bool
	skip      bool // inter, predicted MV, no residual
	intraMode predict.IntraMode
	compound  bool // average LAST and GOLDEN predictions
	ref       int
	mv        motion.MV
}

// mvGridSize is the granularity of the motion-vector context grid.
const mvGridSize = 16

// frameShared is the per-frame state common to encoding and decoding:
// the reconstruction target, reference frames, and the motion-vector
// context grid. Both sides must mutate it identically. Each tile coder
// owns one for its life and resets it per frame.
type frameShared struct {
	profile Profile
	pw, ph  int
	// vw, vh bound the coded region: the display dimensions rounded up
	// to the minimum partition. Blocks beyond it carry no bits (see
	// blockKind).
	vw, vh int
	// tileX0, tileX1 bound this tile column in pixels. Prediction state
	// (intra neighbors, MV contexts) never crosses the left tile edge,
	// which is what makes tiles independently codable.
	tileX0, tileX1 int
	qp             int
	keyframe       bool

	recon    *video.Frame
	refs     [numRefSlots]*video.Frame
	refValid [numRefSlots]bool
	// refHalf holds each reference's half-sample luma planes where the
	// encoder built them; luma prediction reads a stored phase instead of
	// interpolating it. The decoder leaves every slot nil.
	refHalf [numRefSlots]*motion.HalfPlanes

	// model is the frame's entropy model, as frameModel rules.
	model  *entropy.Model
	models [2]entropy.Model

	gw, gh  int
	mvGrid  []motion.MV
	refGrid []int8 // reference slot, -1 = intra or unset

	// mc owns the motion-kernel scratch buffers. frameShared is
	// single-goroutine state (one per tile), so the scratch is never
	// shared across goroutines.
	mc motion.Scratch
	// nbBuf backs intra neighbor gathers, so prediction allocates
	// nothing per block.
	nbBuf predict.NeighborBuf
}

// newFrameShared builds the coding state of a tile coder for frames of
// one profile and size; resetForFrame installs each frame's.
func newFrameShared(profile Profile, pw, ph, dispW, dispH int) *frameShared {
	gw, gh := pw/mvGridSize, ph/mvGridSize
	return &frameShared{
		profile: profile, pw: pw, ph: ph,
		vw: padDim(dispW, profile.MinPartition()),
		vh: padDim(dispH, profile.MinPartition()),
		gw: gw, gh: gh,
		mvGrid:  make([]motion.MV, gw*gh),
		refGrid: make([]int8, gw*gh),
	}
}

// resetForFrame re-points the per-frame fields and clears the context
// grids, reusing the grid and scratch allocations. Dimension-derived
// fields (pw, ph, vw, vh, gw, gh) are invariant for the life of the
// coder and stay untouched.
func (fs *frameShared) resetForFrame(qp int, keyframe bool, refs [numRefSlots]*video.Frame,
	refValid [numRefSlots]bool, recon *video.Frame, model *entropy.Model, tileX0, tileX1 int) {
	fs.qp, fs.keyframe = qp, keyframe
	fs.refs, fs.refValid = refs, refValid
	fs.recon = recon
	fs.model = model
	fs.tileX0, fs.tileX1 = tileX0, tileX1
	for i := range fs.mvGrid {
		fs.mvGrid[i] = motion.MV{}
	}
	for i := range fs.refGrid {
		fs.refGrid[i] = -1
	}
}

// tileSpan returns tile t's pixel columns [x0, x1) of a frame of tiles
// tile columns over padded width pw, cut at superblocks of sb pixels.
func tileSpan(t, tiles, pw, sb int) (x0, x1 int) {
	cols := pw / sb
	return t * cols / tiles * sb, (t + 1) * cols / tiles * sb
}

// frameModel returns the entropy model a tile of a frame of tiles tile
// columns starts from: carried, the last frame's, only in a single-tile
// inter frame of an adaptive profile; else one of the coder's own two,
// reset, and never carried itself, so a frame the decoder fails leaves
// the carried model as it was.
func (fs *frameShared) frameModel(carried *entropy.Model, tiles int, keyframe bool) *entropy.Model {
	adaptive := fs.profile.Adaptive()
	if carried != nil && tiles == 1 && !keyframe && adaptive {
		return carried
	}
	m := &fs.models[0]
	if m == carried {
		m = &fs.models[1]
	}
	m.Reset(adaptive)
	return m
}

// carryOut returns the entropy model a frame of tiles tile columns,
// fs its first tile's coder, leaves for the next: none after a
// multi-tile frame, whatever the next frame's tile count will be.
func (fs *frameShared) carryOut(tiles int) *entropy.Model {
	if tiles > 1 {
		return nil
	}
	return fs.model
}

// refreshSlots moves the reference slots by h's refresh flags, the one
// rule both coders follow: refreshed slots take f, and a keyframe
// empties the others, so every reference is of h's profile. retire sees
// every frame a slot lets go, then f if no slot took it.
func refreshSlots[T any](slots *[numRefSlots]T, h frameHeader, f T, retire func(T)) {
	var none T
	taken := false
	for slot, r := range h.refresh {
		if !r && !h.keyframe {
			continue
		}
		old := slots[slot]
		slots[slot] = none
		if r {
			slots[slot], taken = f, true
		}
		retire(old)
	}
	if !taken {
		retire(f)
	}
}

// blockKind classifies a block against the coded-region boundary. Both
// encoder and decoder derive it from the frame header, so none of it is
// signaled:
//
//   - blockOutside: entirely beyond the display region — zero bits; the
//     reconstruction is deterministic edge extension (reconOutside).
//   - blockImplicitSplit: straddles the boundary with room to split — the
//     split is implied, no partition flag is coded (VP9's boundary
//     behavior).
//   - blockNormal: coded normally.
type blockKindT int

const (
	blockNormal blockKindT = iota
	blockImplicitSplit
	blockOutside
)

func (fs *frameShared) blockKind(x, y, s int) blockKindT {
	if x >= fs.vw || y >= fs.vh {
		return blockOutside
	}
	if s > fs.profile.MinPartition() && (x+s > fs.vw || y+s > fs.vh) {
		return blockImplicitSplit
	}
	return blockNormal
}

// reconOutside reconstructs an uncoded out-of-region block by clamped
// copy from the nearest coded pixels. Raster coding order guarantees the
// source pixels are already reconstructed, so encoder and decoder produce
// identical padding — required because motion compensation and intra
// neighbors may read these pixels through reference frames.
func (fs *frameShared) reconOutside(x, y, s int) {
	fillClamped := func(plane []uint8, stride, px, py, ps, limW, limH int) {
		for r := 0; r < ps; r++ {
			sy := py + r
			cy := sy
			if cy > limH-1 {
				cy = limH - 1
			}
			for c := 0; c < ps; c++ {
				sx := px + c
				cx := sx
				if cx > limW-1 {
					cx = limW - 1
				}
				plane[sy*stride+sx] = plane[cy*stride+cx]
			}
		}
	}
	fillClamped(fs.recon.Y, fs.pw, x, y, s, fs.vw, fs.vh)
	cw, _ := video.ChromaDims(fs.pw, fs.ph)
	fillClamped(fs.recon.U, cw, x/2, y/2, s/2, fs.vw/2, fs.vh/2)
	fillClamped(fs.recon.V, cw, x/2, y/2, s/2, fs.vw/2, fs.vh/2)
}

// compoundAvailable reports whether compound prediction can be coded in
// this frame. Encoder and decoder derive it from the same state.
func (fs *frameShared) compoundAvailable() bool {
	return fs.profile.Compound() && fs.refValid[RefLast] && fs.refValid[RefGolden]
}

// predMV returns the motion-vector prediction for the block at (x, y).
// Neighbor cells outside this tile column are unavailable.
func (fs *frameShared) predMV(x, y int) motion.MV {
	gx, gy := x/mvGridSize, y/mvGridSize
	tg0, tg1 := fs.tileX0/mvGridSize, fs.tileX1/mvGridSize
	var left, above, ar motion.MV
	var hasL, hasA, hasAR bool
	if gx > tg0 && fs.refGrid[gy*fs.gw+gx-1] >= 0 {
		left = fs.mvGrid[gy*fs.gw+gx-1]
		hasL = true
	}
	if gy > 0 {
		if fs.refGrid[(gy-1)*fs.gw+gx] >= 0 {
			above = fs.mvGrid[(gy-1)*fs.gw+gx]
			hasA = true
		}
		if gx+1 < tg1 && fs.refGrid[(gy-1)*fs.gw+gx+1] >= 0 {
			ar = fs.mvGrid[(gy-1)*fs.gw+gx+1]
			hasAR = true
		}
	}
	return motion.PredictMV(left, above, ar, hasL, hasA, hasAR)
}

// gatherTileNeighbors collects intra neighbors with the left edge clipped
// at the tile boundary (the bounded gather never reads across it — the
// neighboring tile may be encoding concurrently).
func (fs *frameShared) gatherTileNeighbors(plane []uint8, w, h, x, y, n, tx0 int) predict.Neighbors {
	return predict.GatherNeighborsBounded(plane, w, h, x, y, n, tx0, &fs.nbBuf)
}

// codeMode walks the mode syntax of the leaf at (x, y) through s, the one
// definition the encoder's writer and rate and the decoder's reader
// share, and returns the choice as coded: ch as the syntax carries it
// when s writes or prices it, the stream's when s reads. A keyframe codes
// the intra mode alone; an inter frame codes skip, then whether the block
// is inter, then compound where compoundAvailable, the reference where
// the profile has more than one, and the MV as a difference from predMV.
// A skip takes LAST at predMV.
func (fs *frameShared) codeMode(s entropy.Sink, ch blockChoice, x, y int) blockChoice {
	m := fs.model
	if fs.keyframe {
		return blockChoice{intraMode: predict.IntraMode(m.CodeIntraMode(s, int(ch.intraMode)))}
	}
	pred := fs.predMV(x, y)
	if s.Bool(ch.skip, &m.Skip) {
		return blockChoice{inter: true, skip: true, ref: RefLast, mv: pred}
	}
	if !s.Bool(ch.inter, &m.IsInter) {
		return blockChoice{intraMode: predict.IntraMode(m.CodeIntraMode(s, int(ch.intraMode)))}
	}
	out := blockChoice{inter: true}
	if fs.compoundAvailable() {
		out.compound = s.Bool(ch.compound, &m.Compound)
	}
	if !out.compound && fs.profile.MaxRefs() > 1 {
		out.ref = m.CodeRef(s, ch.ref)
	}
	d := ch.mv.Sub(pred)
	dx, dy := m.CodeMVDiff(s, int32(d.X), int32(d.Y))
	out.mv = motion.MV{X: pred.X + int16(dx), Y: pred.Y + int16(dy)}
	return out
}

// residualCoder codes the residual of one plane of a leaf (class 0 luma,
// 1 chroma; tx its transform size) and reconstructs the plane in place:
// the s×s block of recon at (x, y), rows stride apart, holds the plane's
// prediction on entry and its reconstruction on return. Each transform
// block goes through transform.Reconstruct with its prediction and its
// output the same pixels, which is exact because Reconstruct reads each
// prediction pixel only to write the output pixel at its index. The
// encoder's quantizes and writes the levels, the decoder's reads them.
type residualCoder interface {
	residual(p video.Plane, class int, recon []uint8, stride, x, y, s, tx int)
}

// reconLeaf reconstructs the leaf at (x, y) coded as ch, and records ch
// in the context grids: the one leaf reconstruction of encoder and
// decoder. Each plane is predicted straight into the reconstruction (an
// inter leaf samples both chroma planes in one call), and unless ch
// skips, rc codes the residual of luma, then U, then V over it.
func (fs *frameShared) reconLeaf(rc residualCoder, ch blockChoice, x, y, s int) {
	fs.predictLuma(ch, x, y, s, fs.recon.Y[y*fs.pw+x:], fs.pw)
	fs.predictChroma(ch, x, y, s)
	if !ch.skip {
		cw, _ := video.ChromaDims(fs.pw, fs.ph)
		rc.residual(video.PlaneY, 0, fs.recon.Y, fs.pw, x, y, s, fs.lumaTx(s))
		rc.residual(video.PlaneU, 1, fs.recon.U, cw, x/2, y/2, s/2, fs.chromaTx(s))
		rc.residual(video.PlaneV, 1, fs.recon.V, cw, x/2, y/2, s/2, fs.chromaTx(s))
	}
	if ch.inter {
		fs.setGrid(x, y, s, ch.mv, int8(ch.ref))
	} else {
		fs.setGrid(x, y, s, motion.Zero, -1)
	}
}

// setGrid records the decision for all grid cells covered by the block.
func (fs *frameShared) setGrid(x, y, s int, mv motion.MV, ref int8) {
	for gy := y / mvGridSize; gy < (y+s)/mvGridSize && gy < fs.gh; gy++ {
		for gx := x / mvGridSize; gx < (x+s)/mvGridSize && gx < fs.gw; gx++ {
			fs.mvGrid[gy*fs.gw+gx] = mv
			fs.refGrid[gy*fs.gw+gx] = ref
		}
	}
}

// lumaTx returns the luma transform size for a leaf of size s.
func (fs *frameShared) lumaTx(s int) int {
	tx := fs.profile.MaxTransform()
	if s < tx {
		tx = s
	}
	return tx
}

// chromaTx returns the chroma transform size for a leaf of size s.
func (fs *frameShared) chromaTx(s int) int {
	tx := s / 2
	if tx > fs.profile.MaxTransform() {
		tx = fs.profile.MaxTransform()
	}
	if tx < 4 {
		tx = 4
	}
	return tx
}

// predictLuma fills the s×s block at the start of dst, rows stride
// apart, with the luma prediction for the choice.
func (fs *frameShared) predictLuma(ch blockChoice, x, y, s int, dst []uint8, stride int) {
	if ch.inter {
		sharp := fs.profile.SharpFilter()
		if ch.compound {
			lastRef := motion.Ref{Pix: fs.refs[RefLast].Y, W: fs.pw, H: fs.ph, Sharp: sharp, Half: fs.refHalf[RefLast]}
			goldRef := motion.Ref{Pix: fs.refs[RefGolden].Y, W: fs.pw, H: fs.ph, Sharp: sharp, Half: fs.refHalf[RefGolden]}
			motion.SampleCompoundInto(lastRef, ch.mv, goldRef, ch.mv, x, y, dst, stride, s, &fs.mc)
			return
		}
		ref := motion.Ref{Pix: fs.refs[ch.ref].Y, W: fs.pw, H: fs.ph, Sharp: sharp, Half: fs.refHalf[ch.ref]}
		motion.SampleInto(ref, x, y, ch.mv, dst, stride, s, &fs.mc)
		return
	}
	nb := fs.gatherTileNeighbors(fs.recon.Y, fs.pw, fs.ph, x, y, s, fs.tileX0)
	predict.Predict(ch.intraMode, nb, dst, stride, s)
}

// predictChroma predicts both chroma planes of the leaf at (x, y), size
// s, into the reconstruction: an inter leaf at half its luma vector from
// the same reference planes, an intra one from each plane's neighbors.
func (fs *frameShared) predictChroma(ch blockChoice, x, y, s int) {
	cs := s / 2
	cw, chh := video.ChromaDims(fs.pw, fs.ph)
	cx, cy := x/2, y/2
	if !ch.inter {
		for _, p := range [...][]uint8{fs.recon.U, fs.recon.V} {
			nb := fs.gatherTileNeighbors(p, cw, chh, cx, cy, cs, fs.tileX0/2)
			predict.Predict(ch.intraMode, nb, p[cy*cw+cx:], cw, cs)
		}
		return
	}
	u, v := fs.recon.U[cy*cw+cx:], fs.recon.V[cy*cw+cx:]
	cmv := motion.MV{X: ch.mv.X / 2, Y: ch.mv.Y / 2}
	plane := func(pix []uint8) motion.Ref {
		return motion.Ref{Pix: pix, W: cw, H: chh, Sharp: fs.profile.SharpFilter()}
	}
	if ch.compound {
		last, gold := fs.refs[RefLast], fs.refs[RefGolden]
		motion.SampleCompoundInto(plane(last.U), cmv, plane(gold.U), cmv, cx, cy, u, cw, cs, &fs.mc)
		motion.SampleCompoundInto(plane(last.V), cmv, plane(gold.V), cmv, cx, cy, v, cw, cs, &fs.mc)
		return
	}
	ref := fs.refs[ch.ref]
	motion.SamplePair(plane(ref.U), plane(ref.V), cx, cy, cmv, u, v, cw, cs, &fs.mc)
}

// sseRegion accumulates squared error between a source region and a
// block through the SWAR SSE kernel (motion.PlanarSSE, differential-
// tested against its scalar reference) — this is the RDO distortion
// accumulation on the evalChoice hot path.
func sseRegion(src []uint8, stride, x, y int, blk []uint8, n int) int64 {
	return motion.PlanarSSE(src[y*stride+x:], stride, blk, n, n)
}
