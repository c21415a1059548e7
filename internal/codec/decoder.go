package codec

import (
	"fmt"
	"slices"

	"openvcu/internal/bits"
	"openvcu/internal/codec/entropy"
	"openvcu/internal/codec/filter"
	"openvcu/internal/codec/transform"
	"openvcu/internal/par"
	"openvcu/internal/video"
)

// Decoder decodes a packet stream produced by an Encoder. It mirrors the
// encoder's reconstruction exactly: the decoded reference frames are
// bit-identical to the encoder's, which the round-trip tests assert. Like
// the Encoder, it owns its state for the life of the stream (DESIGN.md
// "Decoder state").
type Decoder struct {
	// refs is the reference store, nil while a slot is invalid; every
	// frame in it was decoded under profile.
	refs    [numRefSlots]*video.Frame
	profile Profile
	width   int
	height  int
	frames  int
	// model mirrors the encoder's cross-frame entropy context carry.
	model *entropy.Model
	// coders are the tile decoders, one per tile column; free holds the
	// reconstructions no slot holds, for the next frame to reuse.
	coders []*decFrame
	free   []*video.Frame
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
// instead of an error. A returned frame belongs to the caller: later
// packets never write it.
func (dec *Decoder) Decode(data []byte) (*video.Frame, error) {
	f, err := dec.decode(data)
	if err != nil && dec.conceal && dec.refs[RefLast] != nil {
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
	if !hdr.keyframe && hdr.profile != dec.profile {
		return nil, fmt.Errorf("codec: %v inter frame over %v references", hdr.profile, dec.profile)
	}
	dec.width, dec.height = hdr.width, hdr.height

	profile := hdr.profile
	sb := profile.SuperblockSize()
	pw, ph := padDim(hdr.width, sb), padDim(hdr.height, sb)

	refs := dec.refs
	var valid [numRefSlots]bool
	for slot, r := range refs {
		valid[slot] = r != nil && !hdr.keyframe
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

	dec.setupCoders(hdr, tiles)
	recon := dec.newRecon(pw, ph)
	decodeTile := func(t int) error {
		df := dec.coders[t]
		x0, x1 := tileSpan(t, tiles, pw, sb)
		df.resetForFrame(hdr.qp, hdr.keyframe, refs, valid, recon,
			df.frameModel(dec.model, tiles, hdr.keyframe), x0, x1)
		df.d.Reset(tileData[t])
		for y := 0; y < ph; y += sb {
			for x := df.tileX0; x < df.tileX1; x += sb {
				if err := df.decodeTree(x, y, sb, 0); err != nil {
					return err
				}
			}
		}
		if df.d.Overrun() {
			return fmt.Errorf("codec: truncated tile %d bitstream", t)
		}
		return nil
	}
	// Tiles decode concurrently: prediction state never crosses tile
	// edges and recon columns are disjoint, mirroring the parallel
	// encoder. Tiles and filter stripes run on the bound of Workers 0.
	workers := workerBound(0)
	if err := par.Do(tiles, workers, decodeTile); err != nil {
		dec.retire(recon)
		return nil, err
	}
	filter.DeblockParallel(recon, profile.MinPartition(), hdr.deblock, workers)
	if profile.Restoration() {
		filter.RestoreParallel(recon, restByte, workers)
	}
	refreshSlots(&dec.refs, hdr, recon, dec.retire)
	dec.model = dec.coders[0].carryOut(tiles)
	dec.profile = profile
	dec.frames++
	if !hdr.show {
		return nil, nil
	}
	return cropFrame(recon, hdr.width, hdr.height), nil
}

// setupCoders leaves at least n tile decoders for frames like h in
// dec.coders, building them all anew when h's profile or coded region
// (which fix the padded size) differs from the one they were built for.
func (dec *Decoder) setupCoders(h frameHeader, n int) {
	if len(dec.coders) > 0 {
		c, m := dec.coders[0], h.profile.MinPartition()
		if c.profile != h.profile || c.vw != padDim(h.width, m) || c.vh != padDim(h.height, m) {
			dec.coders = dec.coders[:0]
		}
	}
	for len(dec.coders) < n {
		dec.coders = append(dec.coders, allocDecFrame(h))
	}
}

// newRecon returns a frame to reconstruct into: a free one of the padded
// size if there is one, pixels and all, since decoding writes every pixel
// before it reads it; else a new one.
func (dec *Decoder) newRecon(pw, ph int) *video.Frame {
	for n := len(dec.free); n > 0; n-- {
		f := dec.free[n-1]
		dec.free = dec.free[:n-1]
		if f.Width == pw && f.Height == ph {
			return f
		}
	}
	return video.NewFrame(pw, ph)
}

// retire puts f on the free list unless a slot holds it.
func (dec *Decoder) retire(f *video.Frame) {
	if f != nil && !slices.Contains(dec.refs[:], f) {
		dec.free = append(dec.free, f)
	}
}

// decFrame decodes the block layer of one tile column, frame after frame.
type decFrame struct {
	*frameShared
	d *bits.Decoder
	// scanned holds one transform block's levels.
	scanned []int32
}

// allocDecFrame builds a tile decoder for frames like h: every buffer it
// decodes with, sized for h's profile and padded size.
func allocDecFrame(h frameHeader) *decFrame {
	sb, tx := h.profile.SuperblockSize(), h.profile.MaxTransform()
	return &decFrame{
		frameShared: newFrameShared(h.profile, padDim(h.width, sb), padDim(h.height, sb), h.width, h.height),
		d:           bits.NewDecoder(nil),
		scanned:     make([]int32, tx*tx),
	}
}

func (df *decFrame) decodeTree(x, y, s, depth int) error {
	kind := df.blockKind(x, y, s)
	if kind == blockOutside {
		df.reconOutside(x, y, s)
		return nil
	}
	if kind != blockImplicitSplit && (s <= df.profile.MinPartition() ||
		!df.model.CodeSplit(entropy.Reader(df.d), depth, false)) {
		return df.decodeLeaf(x, y, s)
	}
	half := s / 2
	for _, q := range quadrants {
		if err := df.decodeTree(x+q[0]*half, y+q[1]*half, half, depth+1); err != nil {
			return err
		}
	}
	return nil
}

func (df *decFrame) decodeLeaf(x, y, s int) error {
	ch := df.codeMode(entropy.Reader(df.d), blockChoice{}, x, y)
	// A compound block's references need no check: codeMode reads the
	// flag only where compoundAvailable holds
	// (TestCodeModeReadsCompoundOnlyWithBothRefs).
	if ch.inter && !ch.compound && !df.refValid[ch.ref] {
		return fmt.Errorf("codec: reference slot %d not valid", ch.ref)
	}
	df.reconLeaf(df, ch, x, y, s)
	return nil
}

// residual reads the levels of every tx block of one plane of a leaf and
// reconstructs each over its prediction, in place.
func (df *decFrame) residual(_ video.Plane, class int, recon []uint8, stride, x, y, s, tx int) {
	scanned := df.scanned[:tx*tx]
	for by := 0; by < s; by += tx {
		for bx := 0; bx < s; bx += tx {
			if last := df.model.CodeCoeffs(entropy.Reader(df.d), class, scanned, tx, -1); last >= 0 {
				blk := recon[(y+by)*stride+x+bx:]
				transform.Reconstruct(scanned, last, tx, df.qp, blk, stride, blk, stride)
			}
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
