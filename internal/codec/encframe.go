package codec

import (
	"math"

	"openvcu/internal/bits"
	"openvcu/internal/codec/entropy"
	"openvcu/internal/codec/motion"
	"openvcu/internal/codec/predict"
	"openvcu/internal/codec/transform"
	"openvcu/internal/video"
)

// encFrame encodes one frame: it owns the rate-distortion trials, the
// bounded recursive partition search (paper §3.2) and the commit path that
// writes syntax and reconstruction.
type encFrame struct {
	*frameShared
	enc    *Encoder
	src    *video.Frame // padded source
	w      *bits.Encoder
	lambda float64
	sp     motion.SearchParams
	// refPyr snapshots the reference store's search pyramids for this
	// frame (read-only, shared across tiles); frameShared.refHalf does
	// the same for the half-sample planes.
	refPyr [numRefSlots]*motion.Pyramid

	// Trial scratch, reused across every candidate evaluation in this
	// tile (one goroutine): pred holds a trial's luma prediction, reconBlk
	// and the int32 buffers one transform block each.
	pred     []uint8
	reconBlk []uint8
	scanBuf  []int32
	origBuf  []int32
	residBuf []int32
	savedBuf []int32

	// kidsArena holds the child nodes of every split one superblock's
	// search can try (each splittable block tries at most one); kidsUsed
	// is reset per superblock, so a discarded subtree costs nothing.
	kidsArena [][4]partTree
	kidsUsed  int
}

// allocEncFrame performs the one-time allocations of a reusable frame
// coder: scratch buffers, bitstream encoder, context grids and the
// coder's own entropy models. Per-frame state is installed by reset.
func allocEncFrame(e *Encoder) *encFrame {
	fc := &encFrame{
		enc: e,
		w:   bits.NewEncoder(),
	}
	fc.frameShared = newFrameShared(e.cfg.Profile, e.pw, e.ph, e.cfg.Width, e.cfg.Height)
	sb := e.cfg.Profile.SuperblockSize()
	tx := e.cfg.Profile.MaxTransform()
	fc.pred = make([]uint8, sb*sb)
	fc.reconBlk = make([]uint8, tx*tx)
	fc.scanBuf = make([]int32, tx*tx)
	fc.origBuf = make([]int32, tx*tx)
	fc.residBuf = make([]int32, tx*tx)
	fc.savedBuf = make([]int32, tx*tx)
	splittable := 0
	for s, n := sb, 1; s > e.cfg.Profile.MinPartition(); s, n = s/2, n*4 {
		splittable += n
	}
	fc.kidsArena = make([][4]partTree, splittable)
	return fc
}

// reset points the coder at one tile of one frame and its model,
// reusing every allocation from allocEncFrame. Bit-exactness across
// reuse: all per-frame state is either overwritten here (model, grids,
// bitstream, search params) or stateless by contract (motion scratch,
// neighbor buffer, trial buffers fully rewritten before each read).
func (fc *encFrame) reset(src, recon *video.Frame, qp int, keyframe bool,
	tileX0, tileX1 int, model *entropy.Model) {
	e := fc.enc
	var refs [numRefSlots]*video.Frame
	var valid [numRefSlots]bool
	for slot, r := range e.refs {
		if r == nil {
			continue // never stored yet: the snapshots are still nil here too
		}
		refs[slot], valid[slot] = r.frame, !keyframe
		fc.refPyr[slot], fc.refHalf[slot] = r.pyr, r.half
	}
	fc.frameShared.resetForFrame(qp, keyframe, refs, valid, recon, model, tileX0, tileX1)
	fc.src = src
	fc.w.Reset()
	fc.lambda = e.rc.Lambda(qp)
	fc.sp = fc.searchParams()
}

func (fc *encFrame) searchParams() motion.SearchParams {
	p := motion.SearchParams{LambdaMVCost: 2, SubPelDepth: fc.profile.SubPelDepth()}
	switch fc.enc.cfg.Speed {
	case 0:
		p.RangeX, p.RangeY = 24, 24
	case 1:
		p.RangeX, p.RangeY = 16, 16
	default:
		p.RangeX, p.RangeY = 8, 8
		p.SubPelDepth = 1
	}
	// The hardware search window is bounded by the reference store but is
	// exhaustive within its multi-resolution schedule; the pyramid-seeded
	// diamond models the same multi-resolution scan at software cost.
	p.Pyramid = !fc.enc.cfg.flatSearch
	p.CurPyr = &fc.enc.srcPyr
	return p
}

// encodeBlocks runs the superblock loop over this tile's columns.
func (fc *encFrame) encodeBlocks() {
	sb := fc.profile.SuperblockSize()
	for y := 0; y < fc.ph; y += sb {
		for x := fc.tileX0; x < fc.tileX1; x += sb {
			fc.kidsUsed = 0
			_, tree := fc.trialTree(x, y, sb, 0)
			fc.commitTree(x, y, sb, 0, tree)
		}
	}
}

// partTree is the outcome of the partition search for one block.
type partTree struct {
	split   bool
	outside bool
	choice  blockChoice
	kids    *[4]partTree
}

// quadrants are the child offsets of a split, in units of the child size.
var quadrants = [4][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}}

// trialTree performs the bounded recursive partition search: evaluate the
// best whole-block choice, and only descend into a split when the block's
// RD cost is high enough to plausibly benefit — "a bounded recursive
// search algorithm is used for partitioning" (paper §3.2). Hardware mode
// bounds the search more tightly (fewer RDO rounds fit the pipeline).
func (fc *encFrame) trialTree(x, y, s, depth int) (float64, partTree) {
	switch fc.blockKind(x, y, s) {
	case blockOutside:
		return 0, partTree{outside: true}
	case blockImplicitSplit:
		sum, kids := fc.trialSplit(x, y, s, depth, 0)
		return sum, partTree{split: true, kids: kids}
	}
	choice, leafCost := fc.bestChoice(x, y, s)
	leafTotal := leafCost
	minPart := fc.profile.MinPartition()
	if s <= minPart {
		return leafTotal, partTree{choice: choice}
	}
	leafTotal += fc.lambda * float64(fc.model.SplitCost(depth, false)) / 256
	if fc.shouldTrySplit(leafCost, s) {
		sum, kids := fc.trialSplit(x, y, s, depth, fc.lambda*float64(fc.model.SplitCost(depth, true))/256)
		if sum < leafTotal {
			return sum, partTree{split: true, kids: kids}
		}
	}
	return leafTotal, partTree{choice: choice}
}

// trialSplit searches the four children of a block, in nodes taken from
// the arena, and returns sum plus their costs.
func (fc *encFrame) trialSplit(x, y, s, depth int, sum float64) (float64, *[4]partTree) {
	kids := &fc.kidsArena[fc.kidsUsed]
	fc.kidsUsed++
	half := s / 2
	for i, q := range quadrants {
		c, t := fc.trialTree(x+q[0]*half, y+q[1]*half, half, depth+1)
		sum += c
		kids[i] = t
	}
	return sum, kids
}

// shouldTrySplit is the bound of the partition search.
func (fc *encFrame) shouldTrySplit(leafCost float64, s int) bool {
	perPix := 25.0 + 25.0*float64(fc.enc.cfg.Speed)
	if fc.enc.cfg.Hardware {
		perPix *= 1.6
	}
	return leafCost > perPix*float64(s*s)
}

func (fc *encFrame) commitTree(x, y, s, depth int, t partTree) {
	switch fc.blockKind(x, y, s) {
	case blockOutside:
		fc.reconOutside(x, y, s)
		return
	case blockImplicitSplit:
		fc.commitKids(x, y, s, depth, t.kids)
		return
	}
	if s > fc.profile.MinPartition() {
		fc.model.CodeSplit(entropy.Writer(fc.w), depth, t.split)
	}
	if t.split {
		fc.commitKids(x, y, s, depth, t.kids)
		return
	}
	fc.commitLeaf(x, y, s, t.choice)
}

func (fc *encFrame) commitKids(x, y, s, depth int, kids *[4]partTree) {
	half := s / 2
	for i, q := range quadrants {
		fc.commitTree(x+q[0]*half, y+q[1]*half, half, depth+1, kids[i])
	}
}

// --- candidate generation ---------------------------------------------------

// bestChoice evaluates the candidate set for a leaf and returns the lowest
// RD-cost choice, the earliest in canonical order — skip, intra modes,
// inter per reference, compound — among equals. Trials never mutate
// entropy contexts or committed reconstruction, so the order they run in
// is free: an inter frame tries skip and inter first, and the intra
// candidates meet a tight bound.
func (fc *encFrame) bestChoice(x, y, s int) (blockChoice, float64) {
	best, bestCost, bestIdx := blockChoice{}, math.Inf(1), -1
	// A candidate has lost when its cost reaches the best one, or, running
	// after a later one in canonical order, when it exceeds it.
	try := func(idx int, ch blockChoice) {
		lost := bestCost
		if idx < bestIdx {
			lost = math.Nextafter(bestCost, math.Inf(1))
		}
		if c := fc.evalChoice(x, y, s, ch, lost); c < lost {
			best, bestCost, bestIdx = ch, c, idx
		}
	}

	// TrueMotion is a VP8/VP9 tool; the H.264-class profile has no
	// equivalent predictor.
	intraModes := []predict.IntraMode{predict.IntraDC, predict.IntraH, predict.IntraV, predict.IntraTM}
	if fc.profile == H264Class {
		intraModes = intraModes[:3]
	}
	if fc.enc.cfg.Speed >= 2 {
		intraModes = []predict.IntraMode{predict.IntraDC, predict.IntraTM}
		if fc.profile == H264Class {
			intraModes = []predict.IntraMode{predict.IntraDC, predict.IntraV}
		}
	}
	// Canonical indices: skip 0, intra from 1, inter from firstInter,
	// compound last.
	firstInter := 1 + len(intraModes)
	if !fc.keyframe {
		// Skip candidate: LAST reference at the predicted MV, no residual.
		pred := fc.predMV(x, y)
		if fc.refValid[RefLast] {
			try(0, blockChoice{inter: true, skip: true, ref: RefLast, mv: pred})
		}
		// Inter candidates: motion search per valid reference.
		var bestInter blockChoice
		bestInterSet := false
		for ref := 0; ref < fc.enc.searchedRefs(); ref++ {
			if !fc.refValid[ref] {
				continue
			}
			r := motion.Ref{Pix: fc.refs[ref].Y, W: fc.pw, H: fc.ph,
				Sharp: fc.profile.SharpFilter(), Pyr: fc.refPyr[ref], Half: fc.refHalf[ref]}
			res := motion.Search(fc.src.Y[y*fc.pw+x:], fc.pw, r, x, y, pred, s, fc.sp, &fc.mc)
			if fc.enc.cfg.Speed == 0 {
				// Quality mode: re-refine the fractional vector under SATD,
				// the transform-domain cost SAD mispredicts at sub-pel.
				res = motion.RefineSubPelSATD(fc.src.Y[y*fc.pw+x:], fc.pw, r, x, y, res, s, fc.sp, &fc.mc)
			}
			ch := blockChoice{inter: true, ref: ref, mv: res.MV}
			try(firstInter+ref, ch)
			if !bestInterSet || ch.ref == RefLast {
				bestInter = ch
				bestInterSet = true
			}
		}
		// Compound candidate: LAST+GOLDEN averaged at the LAST vector.
		if fc.compoundAvailable() && bestInterSet && fc.enc.cfg.Speed <= 1 {
			ch := bestInter
			ch.compound = true
			ch.ref = RefLast
			try(firstInter+numRefSlots, ch)
		}
	}
	for i, m := range intraModes {
		try(1+i, blockChoice{intraMode: m})
	}
	return best, bestCost
}

// --- RD evaluation ----------------------------------------------------------

// modeRate returns the syntax cost (1/256 bits) of coding the choice's
// mode decision, excluding coefficients.
func (fc *encFrame) modeRate(ch blockChoice, x, y int) uint32 {
	var rate uint32
	fc.codeMode(entropy.Rate(&rate), ch, x, y)
	return rate
}

// coeffRate returns the cost (1/256 bits) of coding one transform block's
// levels, last being the scan index of the last non-zero one (-1: none).
func (fc *encFrame) coeffRate(plane int, scanned []int32, n, last int) uint32 {
	var rate uint32
	fc.model.CodeCoeffs(entropy.Rate(&rate), plane, scanned, n, last)
	return rate
}

// rdCost is the cost the search minimizes. Both terms only grow as a
// trial accumulates distortion and rate, and every float operation here
// is monotone, so the cost of a partial trial never exceeds the trial's.
func (fc *encFrame) rdCost(sse int64, rate uint32) float64 {
	return float64(sse) + fc.lambda*float64(rate)/256
}

// evalChoice computes the luma RD cost of a candidate without committing.
// It runs entirely out of the encFrame scratch buffers. The candidate has
// lost once its cost reaches lost: the trial stops at the first partial
// cost that does — after the mode rate, after a transform block's
// coefficient rate (before that block is reconstructed), after its
// distortion — and returns it.
func (fc *encFrame) evalChoice(x, y, s int, ch blockChoice, lost float64) float64 {
	rate := fc.modeRate(ch, x, y)
	if c := fc.rdCost(0, rate); c >= lost {
		return c
	}
	pred := fc.pred[:s*s]
	fc.predictLuma(ch, x, y, s, pred, s)
	if ch.skip {
		return fc.rdCost(sseRegion(fc.src.Y, fc.pw, x, y, pred, s), rate)
	}
	tx := fc.lumaTx(s)
	var sse int64
	scanned := fc.scanBuf[:tx*tx]
	orig := fc.origBuf[:tx*tx]
	resid := fc.residBuf[:tx*tx]
	reconBlk := fc.reconBlk[:tx*tx]
	for by := 0; by < s; by += tx {
		for bx := 0; bx < s; bx += tx {
			fc.buildResidual(fc.src.Y, fc.pw, x+bx, y+by, pred, s, bx, by, resid, tx)
			last := fc.quantizeScan(resid, tx, 0, scanned, orig)
			rate += fc.coeffRate(0, scanned, tx, last)
			if c := fc.rdCost(sse, rate); c >= lost {
				return c
			}
			// reconstruct into a scratch block to measure distortion
			transform.Reconstruct(scanned, last, tx, fc.qp, pred[by*s+bx:], s, reconBlk, tx)
			sse += sseRegion(fc.src.Y, fc.pw, x+bx, y+by, reconBlk, tx)
			if c := fc.rdCost(sse, rate); c >= lost {
				return c
			}
		}
	}
	return fc.rdCost(sse, rate)
}

// quantizeScan runs the forward transform, quantization, scan and the
// software-only RDOQ pass, leaving quantized levels in scanned and the
// unquantized coefficients (scan order) in origScan — at the non-zero
// levels only: where a level is 0, origScan may hold 0 instead
// (transform.ForwardQuantizeScan). It returns the scan index of the last
// non-zero level (-1: none); resid is scratch afterwards.
func (fc *encFrame) quantizeScan(resid []int32, tx, plane int, scanned, origScan []int32) int {
	last := transform.ForwardQuantizeScan(resid, tx, fc.qp, fc.deadzone(), origScan, scanned)
	return fc.optimizeCoeffs(scanned, origScan, tx, plane, last)
}

// deadzone returns the quantizer rounding bias in 1/8 steps.
func (fc *encFrame) deadzone() int32 { return 3 }

// optimizeCoeffs is the software-only rate-distortion-optimized
// quantization pass, two decisions the VCU pipeline cannot afford per
// macroblock (paper §4.1 names Trellis quantization as a tool the
// hardware lacks):
//
//  1. zero the trailing run of ±1 levels when the measured rate saving
//     beats the exact distortion increase, and
//  2. zero the entire block when the end-of-block code is cheaper than
//     the coefficients are worth.
//
// orig carries the unquantized coefficients (scan order) so distortion
// deltas are exact rather than worst-case; both passes read it only where
// the level is non-zero, the one place quantizeScan promises the true
// coefficient. last is the scan index of the last non-zero level on entry
// and the return value is the same on exit.
func (fc *encFrame) optimizeCoeffs(scanned, orig []int32, n int, plane int, last int) int {
	if fc.enc.cfg.Hardware || last < 0 {
		return last
	}
	step := float64(transform.QStep(fc.qp)) / 16.0
	// ΔD of zeroing one level: err goes from (c-d)² to c².
	zeroDelta := func(i int) float64 {
		c := float64(orig[i])
		d := float64(scanned[i]) * step
		return c*c - (c-d)*(c-d)
	}

	// Pass 1: trailing ±1 run.
	if last >= 1 && (scanned[last] == 1 || scanned[last] == -1) {
		runStart := last
		for runStart >= 1 && (scanned[runStart] == 1 || scanned[runStart] == -1) {
			runStart--
		}
		runStart++
		costBefore := fc.coeffRate(plane, scanned, n, last)
		var distIncrease float64
		saved := fc.savedBuf[:last-runStart+1]
		copy(saved, scanned[runStart:last+1])
		for i := runStart; i <= last; i++ {
			distIncrease += zeroDelta(i)
			scanned[i] = 0
		}
		cut := runStart - 1
		for cut >= 0 && scanned[cut] == 0 {
			cut--
		}
		costAfter := fc.coeffRate(plane, scanned, n, cut)
		if fc.lambda*float64(costBefore-costAfter)/256 <= distIncrease {
			copy(scanned[runStart:last+1], saved)
		} else {
			last = cut
		}
	}
	if last < 0 {
		return last
	}

	// Pass 2: whole-block zero candidate.
	var distIncrease float64
	for i := 0; i <= last; i++ {
		if scanned[i] != 0 {
			distIncrease += zeroDelta(i)
		}
	}
	costCur := fc.coeffRate(plane, scanned, n, last)
	costZero := fc.coeffRate(plane, scanned, n, -1)
	if fc.lambda*float64(costCur-costZero)/256 > distIncrease {
		for i := 0; i <= last; i++ {
			scanned[i] = 0
		}
		return -1
	}
	return last
}

// buildResidual computes src − pred for a tx block.
func (fc *encFrame) buildResidual(src []uint8, stride, sx, sy int,
	pred []uint8, predStride, px, py int, out []int32, n int) {
	for r := 0; r < n; r++ {
		orow := out[r*n : r*n+n]
		srow := src[(sy+r)*stride+sx:][:len(orow)]
		prow := pred[(py+r)*predStride+px:][:len(orow)]
		for c := range orow {
			orow[c] = int32(srow[c]) - int32(prow[c])
		}
	}
}

// --- commit -----------------------------------------------------------------

// commitLeaf writes the chosen leaf's syntax and coefficients and updates
// the reconstruction and context grids. It reconstructs the choice as
// coded (a skip at the commit-time MV prediction) and recomputes
// prediction and residuals against the committed neighborhood, so the
// bitstream decodes to exactly the reconstruction stored here.
func (fc *encFrame) commitLeaf(x, y, s int, ch blockChoice) {
	fc.reconLeaf(fc, fc.codeMode(entropy.Writer(fc.w), ch, x, y), x, y, s)
}

// residual transforms, quantizes and entropy-codes every tx block of one
// plane of a leaf and reconstructs each over its prediction, in place.
func (fc *encFrame) residual(p video.Plane, class int, recon []uint8, stride, x, y, s, tx int) {
	src, _, _ := fc.src.PlaneData(p)
	scanned := fc.scanBuf[:tx*tx]
	orig := fc.origBuf[:tx*tx]
	resid := fc.residBuf[:tx*tx]
	for by := 0; by < s; by += tx {
		for bx := 0; bx < s; bx += tx {
			fc.buildResidual(src, stride, x+bx, y+by, recon, stride, x+bx, y+by, resid, tx)
			last := fc.quantizeScan(resid, tx, class, scanned, orig)
			fc.model.CodeCoeffs(entropy.Writer(fc.w), class, scanned, tx, last)
			if last >= 0 {
				blk := recon[(y+by)*stride+x+bx:]
				transform.Reconstruct(scanned, last, tx, fc.qp, blk, stride, blk, stride)
			}
		}
	}
}
