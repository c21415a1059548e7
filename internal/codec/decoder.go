package codec

import (
	"fmt"

	"openvcu/internal/bits"
	"openvcu/internal/codec/entropy"
	"openvcu/internal/codec/filter"
	"openvcu/internal/codec/motion"
	"openvcu/internal/codec/predict"
	"openvcu/internal/codec/transform"
	"openvcu/internal/par"
	"openvcu/internal/video"
)

// Decoder decodes a packet stream produced by an Encoder. It mirrors the
// encoder's reconstruction exactly: the decoded reference frames are
// bit-identical to the encoder's, which the round-trip tests assert.
type Decoder struct {
	refs     [numRefSlots]*video.Frame
	refValid [numRefSlots]bool
	width    int
	height   int
	frames   int
	// model mirrors the encoder's cross-frame entropy context carry.
	model *entropy.Model
	// conceal enables error concealment: a frame that fails to decode is
	// replaced by the last reference instead of returning an error —
	// "video playback systems are generally tolerant of corruption"
	// (§4.4, citing broadcast error concealment).
	conceal bool
	// Concealed counts frames recovered by concealment.
	Concealed int
}

// SetConcealment toggles error concealment for subsequent frames.
func (dec *Decoder) SetConcealment(on bool) { dec.conceal = on }

// NewDecoder returns an empty Decoder; the first packet must be a keyframe.
func NewDecoder() *Decoder { return &Decoder{} }

// Decode decodes one packet. It returns the display frame, or nil for
// non-displayed (alternate reference) frames. With concealment enabled,
// bitstream-level failures on inter frames yield the previous reference
// instead of an error.
func (dec *Decoder) Decode(data []byte) (*video.Frame, error) {
	f, err := dec.decode(data)
	if err != nil && dec.conceal && dec.refValid[RefLast] {
		dec.Concealed++
		// Freeze on the last good reference; keep decoder state intact.
		return cropFrame(dec.refs[RefLast], dec.width, dec.height), nil
	}
	return f, err
}

func (dec *Decoder) decode(data []byte) (*video.Frame, error) {
	hdrBytes, rest, err := splitHeader(data)
	if err != nil {
		return nil, err
	}
	hdr, err := readHeader(hdrBytes)
	if err != nil {
		return nil, err
	}
	if dec.frames == 0 && !hdr.keyframe {
		return nil, fmt.Errorf("codec: stream does not start with a keyframe")
	}
	if dec.frames > 0 && (hdr.width != dec.width || hdr.height != dec.height) {
		return nil, fmt.Errorf("codec: mid-stream dimension change %dx%d -> %dx%d",
			dec.width, dec.height, hdr.width, hdr.height)
	}
	dec.width, dec.height = hdr.width, hdr.height

	profile := hdr.profile
	sb := profile.SuperblockSize()
	pw, ph := padDim(hdr.width, sb), padDim(hdr.height, sb)

	refs := dec.refs
	valid := dec.refValid
	if hdr.keyframe {
		valid = [numRefSlots]bool{}
	}
	tiles := 1 << hdr.log2Tiles
	numSBCols := pw / sb
	if tiles > numSBCols {
		return nil, fmt.Errorf("codec: %d tiles for %d superblock columns", tiles, numSBCols)
	}
	tileData, restByte, err := splitTiles(rest, tiles, profile.Restoration())
	if err != nil {
		return nil, err
	}

	recon := video.NewFrame(pw, ph)
	var carriedOut *entropy.Model
	decodeTile := func(t int) error {
		carried := dec.model
		if tiles > 1 {
			carried = nil // multi-tile frames always start fresh contexts
		}
		fs := newFrameShared(profile, pw, ph, hdr.width, hdr.height, hdr.qp, hdr.keyframe, refs, valid, recon, carried)
		fs.tileX0 = t * numSBCols / tiles * sb
		fs.tileX1 = (t + 1) * numSBCols / tiles * sb
		td := bits.NewDecoder(tileData[t])
		df := &decFrame{frameShared: fs, d: td}
		for y := 0; y < ph; y += sb {
			for x := fs.tileX0; x < fs.tileX1; x += sb {
				if err := df.decodeTree(x, y, sb, 0); err != nil {
					return err
				}
			}
		}
		if td.Overrun() {
			return fmt.Errorf("codec: truncated tile %d bitstream", t)
		}
		if tiles == 1 {
			carriedOut = fs.model
		}
		return nil
	}
	// Tiles decode concurrently: prediction state never crosses tile
	// edges and recon columns are disjoint, mirroring the parallel
	// encoder. A single tile decodes on this goroutine.
	if err := par.Do(tiles, 0, decodeTile); err != nil {
		return nil, err
	}
	filter.Deblock(recon, profile.MinPartition(), hdr.deblock)
	if profile.Restoration() {
		filter.Restore(recon, restByte)
	}
	for slot, r := range hdr.refresh {
		if r {
			//lint:ignore sharedmut slot rotation between frames: tile decoders have joined, no reader is live
			dec.refs[slot] = recon
			dec.refValid[slot] = true
		}
	}
	dec.model = carriedOut
	dec.frames++
	if !hdr.show {
		return nil, nil
	}
	return cropFrame(recon, hdr.width, hdr.height), nil
}

// decFrame decodes the block layer of one frame.
type decFrame struct {
	*frameShared
	d *bits.Decoder
	// blk is applyTxBlock's scratch: one transform block.
	blk [transform.MaxSize * transform.MaxSize]int32
}

func (df *decFrame) decodeTree(x, y, s, depth int) error {
	switch df.blockKind(x, y, s) {
	case blockOutside:
		df.reconOutside(x, y, s)
		return nil
	case blockImplicitSplit:
		half := s / 2
		for _, off := range [4][2]int{{0, 0}, {half, 0}, {0, half}, {half, half}} {
			if err := df.decodeTree(x+off[0], y+off[1], half, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if s > df.profile.MinPartition() {
		if df.model.ReadSplit(df.d, depth) {
			half := s / 2
			for _, off := range [4][2]int{{0, 0}, {half, 0}, {0, half}, {half, half}} {
				if err := df.decodeTree(x+off[0], y+off[1], half, depth+1); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return df.decodeLeaf(x, y, s)
}

func (df *decFrame) decodeLeaf(x, y, s int) error {
	m := df.model
	var ch blockChoice
	if df.keyframe {
		ch.intraMode = predict.IntraMode(m.ReadIntraMode(df.d))
	} else {
		ch.skip = m.ReadSkip(df.d)
		if ch.skip {
			ch.inter = true
			ch.ref = RefLast
			ch.mv = df.predMV(x, y)
		} else {
			ch.inter = m.ReadIsInter(df.d)
			if ch.inter {
				if df.compoundAvailable() {
					ch.compound = m.ReadCompound(df.d)
				}
				if !ch.compound && df.profile.MaxRefs() > 1 {
					ch.ref = m.ReadRef(df.d)
				}
				dx, dy := m.ReadMVDiff(df.d)
				pred := df.predMV(x, y)
				ch.mv = motion.MV{X: pred.X + int16(dx), Y: pred.Y + int16(dy)}
			} else {
				ch.intraMode = predict.IntraMode(m.ReadIntraMode(df.d))
			}
		}
	}
	if ch.inter {
		if ch.compound {
			if !df.refValid[RefLast] || !df.refValid[RefGolden] {
				return fmt.Errorf("codec: compound prediction with invalid references")
			}
		} else if !df.refValid[ch.ref] {
			return fmt.Errorf("codec: reference slot %d not valid", ch.ref)
		}
	}

	// Luma.
	pred := make([]uint8, s*s)
	df.predictLuma(ch, x, y, s, pred)
	if ch.skip {
		storeBlock(df.recon.Y, df.pw, x, y, pred, s)
	} else {
		df.decodePlaneResidual(df.recon.Y, df.pw, x, y, pred, s, df.lumaTx(s), 0)
	}

	// Chroma.
	cs := s / 2
	cw, _ := video.ChromaDims(df.pw, df.ph)
	cpred := make([]uint8, cs*cs)
	for _, plane := range []video.Plane{video.PlaneU, video.PlaneV} {
		df.predictChromaPlane(ch, plane, x, y, s, cpred)
		var reconPlane []uint8
		if plane == video.PlaneU {
			reconPlane = df.recon.U
		} else {
			reconPlane = df.recon.V
		}
		if ch.skip {
			storeBlock(reconPlane, cw, x/2, y/2, cpred, cs)
		} else {
			df.decodePlaneResidual(reconPlane, cw, x/2, y/2, cpred, cs, df.chromaTx(s), 1)
		}
	}

	if ch.inter {
		df.setGrid(x, y, s, ch.mv, int8(ch.ref))
	} else {
		df.setGrid(x, y, s, motion.Zero, -1)
	}
	return nil
}

func (df *decFrame) decodePlaneResidual(recon []uint8, stride, x, y int,
	pred []uint8, s, tx, planeClass int) {
	scanned := make([]int32, tx*tx)
	blk := df.blk[:tx*tx]
	for by := 0; by < s; by += tx {
		for bx := 0; bx < s; bx += tx {
			last := df.model.ReadCoeffs(df.d, planeClass, scanned, tx)
			applyTxBlock(scanned, last, tx, df.qp, blk, pred, s, by*s+bx, recon, stride, x+bx, y+by)
		}
	}
}

// DecodeSequence decodes a packet list and returns the displayed frames.
func DecodeSequence(packets []Packet) ([]*video.Frame, error) {
	dec := NewDecoder()
	var out []*video.Frame
	for i, p := range packets {
		f, err := dec.Decode(p.Data)
		if err != nil {
			return nil, fmt.Errorf("packet %d: %w", i, err)
		}
		if f != nil {
			out = append(out, f)
		}
	}
	return out, nil
}
