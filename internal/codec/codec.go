// Package codec implements the complete hybrid block-based video codec at
// the heart of the reproduction: a real encoder and decoder with motion-
// compensated inter prediction, intra prediction, integer transforms,
// scalar quantization, adaptive arithmetic entropy coding, in-loop
// deblocking and temporally-filtered alternate reference frames.
//
// Two profiles mirror the paper's two codecs:
//
//   - H264Class: 16×16 macroblocks, 4×4/8×8 transforms, a single reference
//     frame, quarter-pel motion, static entropy contexts — the cheaper,
//     universally-decodable format.
//   - VP9Class: 64×64 superblocks with recursive partitioning, transforms
//     to 32×32, three reference frames, compound prediction, eighth-pel
//     motion, backward-adaptive entropy contexts and alt-ref frames — more
//     computation for meaningfully better compression, reproducing the
//     paper's central algorithmic trade-off (§2.1).
//
// The Hardware flag applies the VCU pipeline restrictions (fixed dead-zone
// quantization without trellis-style coefficient optimization, bounded
// partition search), which is what separates "VCU H.264/VP9" from
// "software libx264/libvpx" quality in Figure 7.
package codec

import (
	"fmt"
	"runtime"

	"openvcu/internal/codec/rc"
	"openvcu/internal/video"
)

// Profile selects the coding toolset.
type Profile int

// Profiles.
const (
	H264Class Profile = iota
	VP9Class
	// AV1Class implements the paper's §6 future-work direction ("new
	// specifications like AV1"): VP9-class tools plus 128×128
	// superblocks and frame-level loop restoration. Software only — the
	// VCU taped out before AV1, so Hardware mode rejects it.
	AV1Class
)

// String names the profile like the paper does.
func (p Profile) String() string {
	switch p {
	case VP9Class:
		return "VP9"
	case AV1Class:
		return "AV1"
	}
	return "H.264"
}

// SuperblockSize is the top-level coding unit size.
func (p Profile) SuperblockSize() int {
	switch p {
	case VP9Class:
		return 64
	case AV1Class:
		return 128
	}
	return 16
}

// MinPartition is the smallest prediction unit.
func (p Profile) MinPartition() int { return 16 }

// MaxTransform is the largest transform size.
func (p Profile) MaxTransform() int {
	if p == H264Class {
		return 8
	}
	return 32
}

// MaxRefs is the number of reference frames searched (paper §3.2: the
// encoder core searches three references for VP9).
func (p Profile) MaxRefs() int {
	if p == H264Class {
		return 1
	}
	return 3
}

// SubPelDepth is the motion-vector precision (2 = quarter, 3 = eighth).
func (p Profile) SubPelDepth() int {
	if p == H264Class {
		return 2
	}
	return 3
}

// SharpFilter reports whether motion compensation uses the sharp 4-tap
// sub-pel interpolator (a VP9/AV1 tool; H.264-class uses bilinear).
func (p Profile) SharpFilter() bool { return p != H264Class }

// Adaptive reports whether entropy contexts adapt within a frame.
func (p Profile) Adaptive() bool { return p != H264Class }

// Compound reports whether two-reference compound prediction is available.
func (p Profile) Compound() bool { return p != H264Class }

// Restoration reports whether the profile applies a signaled frame-level
// loop-restoration filter after deblocking (AV1's loop restoration).
func (p Profile) Restoration() bool { return p == AV1Class }

// Reference slot indices.
const (
	RefLast = iota
	RefGolden
	RefAltRef
	numRefSlots
)

// Config parameterizes an Encoder.
type Config struct {
	Profile       Profile
	Width, Height int
	FPS           int

	// GOPLength is the keyframe interval in display frames (closed GOPs,
	// the chunking unit of §2.1). Default 32.
	GOPLength int
	// GoldenPeriod is the golden-reference refresh interval. Default 8.
	GoldenPeriod int
	// AltRef enables temporally-filtered alternate reference frames
	// (VP9Class only); requires lookahead of ArfPeriod frames.
	AltRef bool
	// ArfPeriod is the alt-ref group length. Default 8.
	ArfPeriod int

	// RC is the rate-control configuration. Zero value means constant
	// QP 32. Width/Height/FPS are filled in from the Config.
	RC rc.Config

	// TileColumns splits the frame into independently entropy-coded
	// vertical tiles (1, 2, 4 or 8), encoded in parallel. Mirrors the
	// hardware's tile-column reference-store organization (§3.2).
	// Prediction and entropy contexts do not cross tile boundaries, so
	// more tiles cost a little compression for a near-linear wall-clock
	// speedup. Default 1.
	TileColumns int

	// Speed trades quality for encode time: 0 = quality (exhaustive-ish
	// search), 1 = default, 2 = realtime. Default 1.
	Speed int

	// Workers bounds how many goroutines a frame's tile columns, in-loop
	// filter stripes and restoration search run on (par.Do's limit, the
	// calling goroutine's share included). The bitstream is byte-identical
	// for every Workers value — parallelism only changes wall clock. 0
	// defaults to GOMAXPROCS; 1 encodes inline on the caller's goroutine
	// (the low-latency mode).
	Workers int

	// Hardware applies VCU pipeline restrictions: no trellis-style
	// coefficient optimization and a tighter bounded partition search.
	Hardware bool

	// flatSearch turns off the multi-resolution motion-search seeding
	// (coarse-to-fine over downsampled planes, modeling the hardware's
	// multi-resolution search), leaving the flat diamond: the
	// differential reference of TestPyramidQualityParity. Only
	// in-package tests can set it.
	flatSearch bool
}

// workerBound is the goroutine bound for workers (0: GOMAXPROCS), at
// most 64: the encoder's Workers and the decoder's fan-outs.
func workerBound(workers int) int {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, 64)
}

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return cfg, fmt.Errorf("codec: invalid dimensions %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.Width > 8192 || cfg.Height > 8192 {
		return cfg, fmt.Errorf("codec: dimensions %dx%d exceed 8192 limit", cfg.Width, cfg.Height)
	}
	if cfg.FPS <= 0 {
		cfg.FPS = 30
	}
	if cfg.GOPLength <= 0 {
		cfg.GOPLength = 32
	}
	if cfg.GoldenPeriod <= 0 {
		cfg.GoldenPeriod = 8
		if cfg.RC.Tuning < rc.MaxTuning/2 {
			// §4.3: "improved group-of-pictures structure selection" and
			// "introduction of additional reference frames" landed after
			// launch — early deployments refreshed the golden reference
			// rarely, limiting the value of the extra reference slots.
			cfg.GoldenPeriod = 32
		}
	}
	if cfg.ArfPeriod <= 0 {
		cfg.ArfPeriod = 8
	}
	if cfg.Profile == H264Class {
		cfg.AltRef = false
	}
	if cfg.Hardware && cfg.Profile == AV1Class {
		return cfg, fmt.Errorf("codec: the VCU does not implement AV1 (software only)")
	}
	switch cfg.TileColumns {
	case 0:
		cfg.TileColumns = 1
	case 1, 2, 4, 8:
	default:
		return cfg, fmt.Errorf("codec: tile columns must be 1, 2, 4 or 8 (got %d)", cfg.TileColumns)
	}
	if cfg.Workers < 0 {
		return cfg, fmt.Errorf("codec: workers must be >= 0 (got %d)", cfg.Workers)
	}
	cfg.Workers = workerBound(cfg.Workers)
	if cfg.RC.Mode == rc.ModeConstQP && cfg.RC.BaseQP == 0 {
		cfg.RC.BaseQP = 32
	}
	cfg.RC.Width = cfg.Width
	cfg.RC.Height = cfg.Height
	cfg.RC.FPS = cfg.FPS
	return cfg, nil
}

// Packet is one encoded frame.
type Packet struct {
	Data []byte
	// Show is false for alternate reference frames, which are decoded
	// into the reference buffer but never displayed.
	Show     bool
	Keyframe bool
	// DisplayIdx is the source frame index this packet displays (-1 for
	// non-shown frames).
	DisplayIdx int
	QP         int
}

// Bits returns the packet size in bits.
func (p Packet) Bits() int { return len(p.Data) * 8 }

// padDim rounds v up to a multiple of align.
func padDim(v, align int) int { return (v + align - 1) / align * align }

// padFrame returns f extended to pw×ph by edge replication. The codec
// operates on whole superblocks; the header carries the display crop.
func padFrame(f *video.Frame, pw, ph int) *video.Frame {
	if f.Width == pw && f.Height == ph {
		return f.Clone()
	}
	out := video.NewFrame(pw, ph)
	padPlane(f.Y, f.Width, f.Height, out.Y, pw, ph)
	scw, sch := video.ChromaDims(f.Width, f.Height)
	dcw, dch := video.ChromaDims(pw, ph)
	padPlane(f.U, scw, sch, out.U, dcw, dch)
	padPlane(f.V, scw, sch, out.V, dcw, dch)
	return out
}

// padPlane copies the sw×sh plane src into the top-left of the dw×dh
// plane dst and extends its last column and last row over the rest.
func padPlane(src []uint8, sw, sh int, dst []uint8, dw, dh int) {
	for y := 0; y < dh; y++ {
		sy := min(y, sh-1)
		row := dst[y*dw : y*dw+dw]
		n := copy(row, src[sy*sw:sy*sw+min(sw, dw)])
		for x, edge := n, row[n-1]; x < len(row); x++ {
			row[x] = edge
		}
	}
}

// cropFrame extracts the top-left w×h of f into a new frame. When f is w
// wide, each plane is one append-copy of its first rows, and Go does not
// clear the memory an append copies into; other widths copy row by row
// into a zeroed frame.
func cropFrame(f *video.Frame, w, h int) *video.Frame {
	if f.Width == w {
		cw, ch := video.ChromaDims(w, h)
		return &video.Frame{Width: w, Height: h,
			Y: append([]uint8(nil), f.Y[:w*h]...),
			U: append([]uint8(nil), f.U[:cw*ch]...),
			V: append([]uint8(nil), f.V[:cw*ch]...)}
	}
	out := video.NewFrame(w, h)
	cropPlane(f.Y, f.Width, out.Y, w, h)
	scw, _ := video.ChromaDims(f.Width, f.Height)
	dcw, dch := video.ChromaDims(w, h)
	cropPlane(f.U, scw, out.U, dcw, dch)
	cropPlane(f.V, scw, out.V, dcw, dch)
	return out
}

func cropPlane(src []uint8, sw int, dst []uint8, dw, dh int) {
	for y := 0; y < dh; y++ {
		copy(dst[y*dw:(y+1)*dw], src[y*sw:y*sw+dw])
	}
}
