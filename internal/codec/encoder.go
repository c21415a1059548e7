package codec

import (
	"fmt"

	"openvcu/internal/codec/entropy"
	"openvcu/internal/codec/filter"
	"openvcu/internal/codec/motion"
	"openvcu/internal/codec/rc"
	"openvcu/internal/codec/transform"
	"openvcu/internal/par"
	"openvcu/internal/video"
)

// Encoder encodes a sequence of frames. It is a streaming encoder: Encode
// may buffer frames (alt-ref lookahead) and return zero or more packets;
// Flush drains the lookahead. An Encoder is not safe for concurrent use —
// the system runs a process per transcode instead (paper §3.1).
type Encoder struct {
	cfg    Config
	pw, ph int
	// log2Tiles is every frame's: TileColumns, halved to fit the frame.
	log2Tiles int

	// refs is the reference store: one entry per slot, nil while the slot
	// is invalid. A keyframe puts one reference in every slot.
	refs [numRefSlots]*reference
	// free holds the references that have left every slot, freeHalf the
	// half-sample planes of those that have left every searched slot; the
	// next reconstruction and the next plane build reuse their buffers
	// instead of allocating.
	free     []*reference
	freeHalf []*motion.HalfPlanes
	// srcPyr is the search pyramid of the frame being encoded, rebuilt at
	// the head of each inter frame and shared read-only by its tiles.
	srcPyr motion.Pyramid

	// model carries the adaptive entropy contexts across inter frames
	// (VP9-class behavior: probabilities persist within a GOP and reset
	// on keyframes; the H.264-class profile re-initializes per frame).
	model *entropy.Model

	rc        *rc.Controller
	frameIdx  int // display index of the next frame accepted by Encode
	lookahead []laFrame
	// sceneCuts marks display indices that must start a new closed GOP
	// (scene changes found by the first pass): "frame type ... decisions"
	// are what two-pass statistics exist to improve (§2.1).
	sceneCuts map[int]bool
	// groupQPBias raises member-frame QP inside an alt-ref group: the
	// group leans on its high-quality filtered reference, so ordinary
	// frames can afford coarser quantization (pyramid bit allocation).
	groupQPBias int

	// coders are the tile coders, one per tile column, built on first
	// use and reset for each frame; they keep their scratch across
	// frames, so steady-state encoding allocates only per-frame output.
	coders []*encFrame

	// EncodedPixels accumulates source luma pixels encoded, for
	// throughput accounting.
	EncodedPixels int64
}

// reference is a reconstructed frame in the reference store with what
// motion search derives from it (paper §3.2: the hardware's reference
// store is filled once per reference and feeds a multi-resolution
// search). pyr is built when the frame is stored; the flat search has
// none. half is nil until the head of the first inter frame that searches
// the reference, so a frame nothing searches — the last of a closed GOP,
// a golden frame at Speed 2 — never pays for it. Both are read-only while
// tiles encode.
type reference struct {
	frame *video.Frame
	pyr   *motion.Pyramid
	half  *motion.HalfPlanes
}

// newReference returns a reference whose frame is a copy of src, in a
// recycled reference's buffers when one is free.
func (e *Encoder) newReference(src *video.Frame) *reference {
	n := len(e.free)
	if n == 0 {
		var pyr *motion.Pyramid
		if !e.cfg.flatSearch {
			pyr = &motion.Pyramid{}
		}
		return &reference{frame: src.Clone(), pyr: pyr}
	}
	r := e.free[n-1]
	e.free = e.free[:n-1]
	r.frame.CopyFrom(src)
	return r
}

// retire runs when a slot has let go of r. Its planes go to the free
// list once no searched slot holds it, r itself once no slot does.
func (e *Encoder) retire(r *reference) {
	if r == nil {
		return
	}
	held, searched := false, false
	for slot, s := range e.refs {
		held = held || s == r
		searched = searched || (s == r && slot < e.searchedRefs())
	}
	if !searched && r.half != nil {
		e.freeHalf = append(e.freeHalf, r.half)
		r.half = nil
	}
	if !held {
		e.free = append(e.free, r)
	}
}

// searchedRefs is how many reference slots an inter frame searches.
func (e *Encoder) searchedRefs() int {
	if e.cfg.Speed >= 2 {
		return 1
	}
	return e.cfg.Profile.MaxRefs()
}

// buildSearchPlanes runs at the head of an inter frame, before its tiles
// fan out: the source pyramid, and the half-sample planes of every
// reference the frame searches that an earlier frame has not built.
func (e *Encoder) buildSearchPlanes(src *video.Frame) {
	if !e.cfg.flatSearch {
		e.srcPyr.Build(src.Y, e.pw, e.ph)
	}
	for _, r := range e.refs[:e.searchedRefs()] {
		if r == nil || r.half != nil {
			continue
		}
		if n := len(e.freeHalf); n > 0 {
			r.half, e.freeHalf = e.freeHalf[n-1], e.freeHalf[:n-1]
		} else {
			r.half = &motion.HalfPlanes{}
		}
		r.half.Build(motion.Ref{Pix: r.frame.Y, W: e.pw, H: e.ph, Sharp: e.cfg.Profile.SharpFilter()})
	}
}

type laFrame struct {
	frame *video.Frame
	idx   int
}

// NewEncoder validates the config and returns a ready Encoder.
func NewEncoder(cfg Config) (*Encoder, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	sb := c.Profile.SuperblockSize()
	e := &Encoder{
		cfg: c,
		pw:  padDim(c.Width, sb),
		ph:  padDim(c.Height, sb),
		rc:  rc.NewController(c.RC),
	}
	for 1<<(e.log2Tiles+1) <= min(c.TileColumns, e.pw/sb) {
		e.log2Tiles++
	}
	return e, nil
}

// Close is a no-op: an Encoder holds no goroutine or other resource
// between calls.
func (e *Encoder) Close() error { return nil }

// Encode accepts the next display frame and returns any packets that
// became ready. With alt-ref lookahead enabled, packets arrive in groups.
func (e *Encoder) Encode(f *video.Frame) ([]Packet, error) {
	if f.Width != e.cfg.Width || f.Height != e.cfg.Height {
		return nil, fmt.Errorf("codec: frame %dx%d does not match configured %dx%d",
			f.Width, f.Height, e.cfg.Width, e.cfg.Height)
	}
	idx := e.frameIdx
	e.frameIdx++
	if !e.cfg.AltRef {
		pkt, err := e.encodeOne(f, idx, e.isKeyframe(idx), true, false)
		if err != nil {
			return nil, err
		}
		return []Packet{pkt}, nil
	}
	e.lookahead = append(e.lookahead, laFrame{f, idx})
	// Close the group at the alt-ref period or just before a keyframe.
	if len(e.lookahead) >= e.cfg.ArfPeriod || e.isKeyframe(idx+1) {
		return e.flushGroup()
	}
	return nil, nil
}

// Flush drains buffered lookahead frames and returns their packets.
func (e *Encoder) Flush() ([]Packet, error) {
	if len(e.lookahead) == 0 {
		return nil, nil
	}
	return e.flushGroup()
}

// SetFirstPass installs first-pass statistics (FirstPassAnalyze) for a
// two-pass mode: the rate controller's budget, and the scene cuts, the
// frames after the first that the analysis marks Keyframe, which then
// encode as keyframes regardless of the GOP cadence.
func (e *Encoder) SetFirstPass(stats []rc.FrameStats) {
	e.rc.SetFirstPassStats(stats)
	e.sceneCuts = map[int]bool{}
	for i, st := range stats {
		if i > 0 && st.Keyframe {
			e.sceneCuts[i] = true
		}
	}
}

func (e *Encoder) isKeyframe(idx int) bool {
	return idx%e.cfg.GOPLength == 0 || e.sceneCuts[idx]
}

// flushGroup encodes one alt-ref group: an optional leading keyframe, a
// non-displayed temporally-filtered alternate reference synthesized from
// the group's frames, then the group's frames in display order.
func (e *Encoder) flushGroup() ([]Packet, error) {
	group := e.lookahead
	e.lookahead = nil
	var packets []Packet

	rest := group
	if e.isKeyframe(group[0].idx) {
		pkt, err := e.encodeOne(group[0].frame, group[0].idx, true, true, false)
		if err != nil {
			return nil, err
		}
		packets = append(packets, pkt)
		rest = group[1:]
	}
	if len(rest) == 0 {
		return packets, nil
	}
	if len(rest) >= 2 {
		frames := make([]*video.Frame, len(rest))
		for i, lf := range rest {
			frames[i] = lf.frame
		}
		// An alternate reference costs a full extra encode; it pays for
		// itself only when the temporal filter can remove noise that
		// single-frame references carry (clean content predicts from
		// LAST just as well). Production encoders make the same
		// content-adaptive decision.
		if groupNoise(frames) > arfNoiseThreshold {
			arf := filter.TemporalFilter(frames, len(frames)/2)
			pkt, err := e.encodeOne(arf, rest[len(rest)/2].idx, false, false, true)
			if err != nil {
				return nil, err
			}
			pkt.DisplayIdx = -1
			packets = append(packets, pkt)
			e.groupQPBias = 4
		}
	}
	for _, lf := range rest {
		pkt, err := e.encodeOne(lf.frame, lf.idx, false, true, false)
		if err != nil {
			return nil, err
		}
		packets = append(packets, pkt)
	}
	e.groupQPBias = 0
	return packets, nil
}

// encodeOne encodes a single frame with the given role. The packet is an
// envelope: a length-prefixed header block, one length-prefixed substream
// per tile column (encoded in parallel when TileColumns > 1), and an
// optional trailing restoration byte.
func (e *Encoder) encodeOne(f *video.Frame, displayIdx int, keyframe, show, altref bool) (Packet, error) {
	qp := e.rc.FrameQP(displayIdx, keyframe, altref)
	if !keyframe && !altref {
		qp += e.groupQPBias
		if qp > transform.MaxQP {
			qp = transform.MaxQP
		}
	}
	src := padFrame(f, e.pw, e.ph)
	tiles := 1 << e.log2Tiles
	hdr := frameHeader{
		profile:   e.cfg.Profile,
		keyframe:  keyframe,
		show:      show,
		width:     e.cfg.Width,
		height:    e.cfg.Height,
		qp:        qp,
		deblock:   deblockStrength(qp),
		log2Tiles: e.log2Tiles,
	}
	hdr.refresh[RefLast] = show || keyframe
	hdr.refresh[RefGolden] = keyframe || (show && displayIdx%e.cfg.GoldenPeriod == 0)
	hdr.refresh[RefAltRef] = keyframe || altref
	hdrBytes := writeHeader(hdr)

	ref := e.newReference(src)
	recon := ref.frame
	if !keyframe {
		e.buildSearchPlanes(src)
	}
	for len(e.coders) < tiles {
		e.coders = append(e.coders, allocEncFrame(e))
	}
	// Tiles are independent: entropy contexts as frameModel rules,
	// prediction clipped at tile edges, disjoint recon columns. The tile
	// bytes alias each coder's range coder; assembleEnvelope copies them
	// before the next frame resets it.
	tileData := make([][]byte, tiles)
	//lint:ignore errdrop every tile function returns nil
	_ = par.Do(tiles, e.cfg.Workers, func(t int) error {
		fc := e.coders[t]
		x0, x1 := tileSpan(t, tiles, e.pw, e.cfg.Profile.SuperblockSize())
		fc.reset(src, recon, qp, keyframe, x0, x1, fc.frameModel(e.model, tiles, keyframe))
		fc.encodeBlocks()
		tileData[t] = fc.w.Bytes()
		return nil
	})
	e.model = e.coders[0].carryOut(tiles)

	// In-loop filters: deblock stripes, then the restoration SSE scan
	// and blend (AV1-class: the SSE-minimizing blend against the source
	// is signalled after the tile data). The decoder runs the same
	// striped filters, and their bytes do not depend on the worker count.
	filter.DeblockParallel(recon, e.cfg.Profile.MinPartition(), hdr.deblock, e.cfg.Workers)
	restByte := -1
	if e.cfg.Profile.Restoration() {
		restByte = filter.BestRestorationWeightParallel(recon, src, e.cfg.Workers)
		filter.RestoreParallel(recon, restByte, e.cfg.Workers)
	}
	data := assembleEnvelope(hdrBytes, tileData, restByte)
	// Store the reconstruction with its search pyramid, built once no
	// matter how many slots refresh. The tiles have returned, so no
	// reader of the store is live.
	if ref.pyr != nil {
		ref.pyr.Build(recon.Y, e.pw, e.ph)
	}
	refreshSlots(&e.refs, hdr, ref, e.retire)
	e.rc.Update(displayIdx, qp, len(data)*8)
	e.EncodedPixels += int64(f.Width) * int64(f.Height)

	pkt := Packet{Data: data, Show: show, Keyframe: keyframe, DisplayIdx: displayIdx, QP: qp}
	if !show {
		pkt.DisplayIdx = -1
	}
	return pkt, nil
}

// arfNoiseThreshold is the motion-compensated residual (SAD per pixel)
// above which an alt-ref group is worth its extra encode.
const arfNoiseThreshold = 1.0

// groupNoise estimates the temporal noise of a frame group: the mean
// motion-compensated SAD per pixel between the center frame and its
// neighbor, sampled on a sparse block grid. Pure translation or static
// content scores near zero; sensor noise and flicker score high.
func groupNoise(frames []*video.Frame) float64 {
	if len(frames) < 2 {
		return 0
	}
	cur := frames[len(frames)/2]
	prev := frames[len(frames)/2-1]
	ref := motion.Ref{Pix: prev.Y, W: prev.Width, H: prev.Height}
	const n = 16
	var sad, pixels int64
	sc := motion.NewScratch()
	for by := 0; by+n <= cur.Height; by += n * 2 {
		for bx := 0; bx+n <= cur.Width; bx += n * 2 {
			res := motion.Search(cur.Y[by*cur.Width+bx:], cur.Width, ref, bx, by,
				motion.Zero, n, motion.SearchParams{RangeX: 8, RangeY: 8, SubPelDepth: 1}, sc)
			sad += res.SAD
			pixels += n * n
		}
	}
	if pixels == 0 {
		return 0
	}
	return float64(sad) / float64(pixels)
}

// FirstPassAnalyze computes cheap per-frame complexity statistics for
// two-pass rate control: block SAD against the frame's own DC (intra cost)
// and against the previous frame (inter cost), with scene cuts marked as
// keyframes. This is the "first pass" of §2.1 at a fraction of encode cost.
func FirstPassAnalyze(frames []*video.Frame) []rc.FrameStats {
	stats := make([]rc.FrameStats, len(frames))
	const n = 16
	for i, f := range frames {
		var intra, inter int64
		var prev *video.Frame
		if i > 0 {
			prev = frames[i-1]
		}
		for by := 0; by+n <= f.Height; by += n {
			for bx := 0; bx+n <= f.Width; bx += n {
				var sum int64
				for y := 0; y < n; y++ {
					row := f.Y[(by+y)*f.Width+bx:]
					for x := 0; x < n; x++ {
						sum += int64(row[x])
					}
				}
				dc := uint8(sum / (n * n))
				var ic, pc int64
				for y := 0; y < n; y++ {
					row := f.Y[(by+y)*f.Width+bx:]
					var prow []uint8
					if prev != nil {
						prow = prev.Y[(by+y)*f.Width+bx:]
					}
					for x := 0; x < n; x++ {
						d := int64(row[x]) - int64(dc)
						if d < 0 {
							d = -d
						}
						ic += d
						if prev != nil {
							pd := int64(row[x]) - int64(prow[x])
							if pd < 0 {
								pd = -pd
							}
							pc += pd
						}
					}
				}
				intra += ic
				inter += pc
			}
		}
		if prev == nil {
			inter = intra
		}
		stats[i] = rc.FrameStats{IntraCost: intra, InterCost: inter,
			Keyframe: i == 0 || (inter > intra*9/10 && intra > 0)}
	}
	return stats
}

// SequenceResult is the outcome of EncodeSequence.
type SequenceResult struct {
	Packets   []Packet
	TotalBits int
	// AvgQP is the mean QP over shown frames.
	AvgQP float64
}

// EncodeSequence is the batch entry point: it runs first-pass analysis if
// the rate-control mode needs it, encodes all frames, and flushes.
func EncodeSequence(cfg Config, frames []*video.Frame) (*SequenceResult, error) {
	enc, err := NewEncoder(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.RC.Mode.TwoPass() {
		enc.SetFirstPass(FirstPassAnalyze(frames))
	}
	pkts, err := enc.encodeAll(frames)
	if err != nil {
		return nil, err
	}
	return tally(pkts, len(frames)), nil
}

// encodeAll encodes frames in order, flushes, and returns every packet:
// the one encode loop of the sequence entry points.
func (e *Encoder) encodeAll(frames []*video.Frame) ([]Packet, error) {
	var pkts []Packet
	for _, f := range frames {
		got, err := e.Encode(f)
		if err != nil {
			return nil, err
		}
		pkts = append(pkts, got...)
	}
	got, err := e.Flush()
	if err != nil {
		return nil, err
	}
	return append(pkts, got...), nil
}

// tally is the SequenceResult of the packets of n display frames.
func tally(pkts []Packet, n int) *SequenceResult {
	res := &SequenceResult{Packets: pkts}
	for _, p := range pkts {
		res.TotalBits += p.Bits()
		if p.Show {
			res.AvgQP += float64(p.QP)
		}
	}
	if n > 0 {
		res.AvgQP /= float64(n)
	}
	return res
}
