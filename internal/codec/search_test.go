package codec

import (
	"fmt"
	"math"
	"testing"

	"openvcu/internal/codec/entropy"
	"openvcu/internal/codec/motion"
	"openvcu/internal/codec/predict"
	"openvcu/internal/codec/rc"
	"openvcu/internal/video"
)

// exhaustiveChoice is the leaf search without bounds, the reference the
// bounded one must agree with: every candidate evaluated to completion,
// in canonical order, the first strictly cheapest kept.
func exhaustiveChoice(fc *encFrame, x, y, s int) (blockChoice, float64) {
	best, bestCost := blockChoice{}, math.Inf(1)
	try := func(ch blockChoice) {
		if c := fc.evalChoice(x, y, s, ch, math.Inf(1)); c < bestCost {
			best, bestCost = ch, c
		}
	}
	intraModes := []predict.IntraMode{predict.IntraDC, predict.IntraH, predict.IntraV, predict.IntraTM}
	switch {
	case fc.enc.cfg.Speed >= 2 && fc.profile == H264Class:
		intraModes = []predict.IntraMode{predict.IntraDC, predict.IntraV}
	case fc.enc.cfg.Speed >= 2:
		intraModes = []predict.IntraMode{predict.IntraDC, predict.IntraTM}
	case fc.profile == H264Class:
		intraModes = intraModes[:3]
	}
	pred := fc.predMV(x, y)
	if !fc.keyframe && fc.refValid[RefLast] {
		try(blockChoice{inter: true, skip: true, ref: RefLast, mv: pred})
	}
	for _, m := range intraModes {
		try(blockChoice{intraMode: m})
	}
	if fc.keyframe {
		return best, bestCost
	}
	var last *blockChoice
	for ref := 0; ref < fc.enc.searchedRefs(); ref++ {
		if !fc.refValid[ref] {
			continue
		}
		r := motion.Ref{Pix: fc.refs[ref].Y, W: fc.pw, H: fc.ph,
			Sharp: fc.profile.SharpFilter(), Pyr: fc.refPyr[ref], Half: fc.refHalf[ref]}
		res := motion.Search(fc.src.Y[y*fc.pw+x:], fc.pw, r, x, y, pred, s, fc.sp, &fc.mc)
		if fc.enc.cfg.Speed == 0 {
			res = motion.RefineSubPelSATD(fc.src.Y[y*fc.pw+x:], fc.pw, r, x, y, res, s, fc.sp, &fc.mc)
		}
		ch := blockChoice{inter: true, ref: ref, mv: res.MV}
		try(ch)
		if last == nil || ref == RefLast {
			last = &ch
		}
	}
	if fc.compoundAvailable() && last != nil && fc.enc.cfg.Speed <= 1 {
		ch := *last
		ch.compound, ch.ref = true, RefLast
		try(ch)
	}
	return best, bestCost
}

// exhaustiveTree is trialTree over exhaustiveChoice, its nodes allocated.
func exhaustiveTree(fc *encFrame, x, y, s, depth int) (float64, partTree) {
	kind := fc.blockKind(x, y, s)
	if kind == blockOutside {
		return 0, partTree{outside: true}
	}
	split := func(sum float64) (float64, partTree) {
		kids := new([4]partTree)
		for i, q := range quadrants {
			c, t := exhaustiveTree(fc, x+q[0]*s/2, y+q[1]*s/2, s/2, depth+1)
			sum += c
			kids[i] = t
		}
		return sum, partTree{split: true, kids: kids}
	}
	if kind == blockImplicitSplit {
		return split(0)
	}
	choice, leafCost := exhaustiveChoice(fc, x, y, s)
	leaf := partTree{choice: choice}
	if s <= fc.profile.MinPartition() {
		return leafCost, leaf
	}
	leafTotal := leafCost + fc.lambda*float64(fc.model.SplitCost(depth, false))/256
	if fc.shouldTrySplit(leafCost, s) {
		if sum, t := split(fc.lambda * float64(fc.model.SplitCost(depth, true)) / 256); sum < leafTotal {
			return sum, t
		}
	}
	return leafTotal, leaf
}

func sameTree(a, b partTree) bool {
	if a.split != b.split || a.outside != b.outside {
		return false
	}
	if !a.split {
		return a.outside || a.choice == b.choice
	}
	for i := range a.kids {
		if !sameTree(a.kids[i], b.kids[i]) {
			return false
		}
	}
	return true
}

// String prints a tree compactly: "-" outside, "[a b c d]" a split, and a
// leaf as skip, i<mode>, p<ref><mv> or c<mv>.
func (t partTree) String() string {
	ch := t.choice
	switch {
	case t.outside:
		return "-"
	case t.split:
		return fmt.Sprintf("[%v %v %v %v]", t.kids[0], t.kids[1], t.kids[2], t.kids[3])
	case ch.skip:
		return "skip"
	case ch.compound:
		return fmt.Sprintf("c%v", ch.mv)
	case ch.inter:
		return fmt.Sprintf("p%d%v", ch.ref, ch.mv)
	}
	return fmt.Sprintf("i%d", ch.intraMode)
}

// checkFrameSearch holds trialTree to exhaustiveTree on every superblock
// of f, in the state enc would encode it in: its references, its carried
// entropy model (a copy), the frame's QP, and a reconstruction that
// commits each superblock's tree before the next is searched. lambda < 0
// keeps the encoder's. Returns the root trees.
func checkFrameSearch(t *testing.T, enc *Encoder, f *video.Frame, idx int, lambda float64) []partTree {
	t.Helper()
	keyframe := enc.isKeyframe(idx)
	src := padFrame(f, enc.pw, enc.ph)
	if !keyframe {
		enc.buildSearchPlanes(src)
	}
	var carried *entropy.Model
	if enc.model != nil {
		m := *enc.model
		carried = &m
	}
	fc := allocEncFrame(enc)
	fc.reset(src, src.Clone(), enc.rc.FrameQP(idx, keyframe, false), keyframe, 0, enc.pw,
		fc.frameModel(carried, 1, keyframe))
	if lambda >= 0 {
		fc.lambda = lambda
	}
	var trees []partTree
	sb := fc.profile.SuperblockSize()
	for y := 0; y < fc.ph; y += sb {
		for x := 0; x < fc.pw; x += sb {
			wantCost, want := exhaustiveTree(fc, x, y, sb, 0)
			fc.kidsUsed = 0
			gotCost, got := fc.trialTree(x, y, sb, 0)
			if gotCost != wantCost || !sameTree(got, want) {
				t.Fatalf("frame %d superblock (%d,%d): bounded search found cost %v tree %v, exhaustive %v tree %v",
					idx, x, y, gotCost, got, wantCost, want)
			}
			fc.commitTree(x, y, sb, 0, want)
			trees = append(trees, want)
		}
	}
	return trees
}

// TestBoundedSearchMatchesExhaustive: the branch-and-bound partition
// search is exact — same tree and same root cost as the search that
// finishes every candidate — on every superblock of key and inter frames,
// across profiles, speeds, hardware mode and a frame size that leaves
// implicit splits and outside blocks at the edges.
func TestBoundedSearchMatchesExhaustive(t *testing.T) {
	frames := video.NewSource(video.SourceConfig{
		Width: 214, Height: 138, Seed: 5, Detail: 0.7, Motion: 2,
		ObjectMotion: 3, Objects: 3, Noise: 2}).Frames(3)
	for _, profile := range []Profile{H264Class, VP9Class, AV1Class} {
		for speed := 0; speed <= 2; speed++ {
			for _, hardware := range []bool{false, true} {
				if hardware && profile == AV1Class {
					continue // rejected by the config
				}
				t.Run(fmt.Sprintf("%v/speed%d/hardware=%v", profile, speed, hardware), func(t *testing.T) {
					cfg := Config{Profile: profile, Width: 214, Height: 138, Speed: speed, Hardware: hardware,
						GoldenPeriod: 2, RC: rc.Config{BaseQP: 34}}
					enc, err := NewEncoder(cfg)
					if err != nil {
						t.Fatal(err)
					}
					splits := 0
					for i, f := range frames {
						for _, tree := range checkFrameSearch(t, enc, f, i, -1) {
							if tree.split {
								splits++
							}
						}
						if _, err := enc.Encode(f); err != nil {
							t.Fatal(err)
						}
					}
					if profile != H264Class && splits == 0 {
						t.Error("no superblock split: the clip does not exercise the partition tree")
					}
				})
			}
		}
	}
}

// TestBoundedSearchKeepsCanonicalWinnerOnTie forces an exact tie between
// an earlier and a later candidate of the canonical order, the earlier
// one evaluated later: on a flat frame brighter than its flat reference,
// the first block's intra DC prediction (no neighbours: 128) and its
// inter prediction (the reference: 128) are the same pixels, and with
// λ = 0 the mode rates that would separate them do not count. Intra DC
// precedes inter in canonical order and must win.
func TestBoundedSearchKeepsCanonicalWinnerOnTie(t *testing.T) {
	flat := func(v uint8) *video.Frame {
		f := video.NewFrame(64, 64)
		for _, plane := range [][]uint8{f.Y, f.U, f.V} {
			for i := range plane {
				plane[i] = v
			}
		}
		return f
	}
	for _, profile := range []Profile{H264Class, VP9Class} {
		cfg := Config{Profile: profile, Width: 64, Height: 64, RC: rc.Config{BaseQP: 30}}
		enc, err := NewEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := enc.Encode(flat(128)); err != nil {
			t.Fatal(err)
		}
		trees := checkFrameSearch(t, enc, flat(150), 1, 0)
		if want := (blockChoice{intraMode: predict.IntraDC}); trees[0].split || trees[0].choice != want {
			t.Errorf("%v: first block chose %v, want intra DC", profile, trees[0])
		}

		// The tie is real: finished, the two candidates cost the same.
		fc := allocEncFrame(enc)
		fc.reset(padFrame(flat(150), enc.pw, enc.ph), flat(150), 30, false, 0, enc.pw, fc.frameModel(nil, 1, false))
		fc.lambda = 0
		s := profile.SuperblockSize()
		intra := fc.evalChoice(0, 0, s, blockChoice{intraMode: predict.IntraDC}, math.Inf(1))
		inter := fc.evalChoice(0, 0, s, blockChoice{inter: true, ref: RefLast}, math.Inf(1))
		skip := fc.evalChoice(0, 0, s, blockChoice{inter: true, skip: true, ref: RefLast}, math.Inf(1))
		if intra != inter || skip <= intra {
			t.Errorf("%v: intra DC %v, inter %v, skip %v: want an intra/inter tie below skip", profile, intra, inter, skip)
		}
	}
}
