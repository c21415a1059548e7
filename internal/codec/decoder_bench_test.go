package codec

import (
	"fmt"
	"slices"
	"testing"

	"openvcu/internal/codec/entropy"
	"openvcu/internal/codec/rc"
	"openvcu/internal/codec/transform"
	"openvcu/internal/video"
)

// playbackStreams encodes the streams the benchmark's playback_decode
// workload reads: a VP9-class ladder of 360p, 240p and 144p (Speed 2
// under the hardware restrictions, two-pass at 0.12 bit/pixel, 6-frame
// closed GOPs) scaled from one 360p clip, and a 360p H.264-class stream
// in two tile columns.
func playbackStreams(tb testing.TB) [][]Packet {
	const n, fps, gop = 12, 30, 6
	src := video.NewSource(video.SourceConfig{
		Width: 640, Height: 360, Seed: 7, Detail: 0.5, Motion: 1.5,
		ObjectMotion: 2.5, Objects: 2}).Frames(n)
	var streams [][]Packet
	encode := func(cfg Config, frames []*video.Frame) {
		res, err := EncodeSequence(cfg, frames)
		if err != nil {
			tb.Fatal(err)
		}
		streams = append(streams, res.Packets)
	}
	for _, r := range []video.Resolution{video.Res360p, video.Res240p, video.Res144p} {
		frames := make([]*video.Frame, n)
		for i, f := range src {
			frames[i] = video.ScaleTo(f, r)
		}
		encode(Config{Profile: VP9Class, Width: r.Width, Height: r.Height, FPS: fps, GOPLength: gop,
			Speed: 2, Hardware: true, Workers: 1,
			RC: rc.Config{Mode: rc.ModeTwoPassOffline, TargetBitrate: r.Pixels() * fps * 12 / 100}}, frames)
	}
	encode(Config{Profile: H264Class, Width: 640, Height: 360, FPS: fps, GOPLength: gop,
		Speed: 2, TileColumns: 2, Workers: 2, RC: rc.Config{BaseQP: 28}}, src)
	return streams
}

// BenchmarkDecodePlayback decodes the playback streams, one decoder per
// stream as the workload does, and reports decoded megapixels per
// second. `make profile-decode` prints its CPU profile.
func BenchmarkDecodePlayback(b *testing.B) {
	streams := playbackStreams(b)
	var pixels int64
	for _, pkts := range streams {
		key, err := NewDecoder().Decode(pkts[0].Data)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pkts {
			if p.Show {
				pixels += int64(key.Width * key.Height)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pkts := range streams {
			if _, err := DecodeSequence(pkts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(pixels)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpix/s")
}

// txBlock is one transform block as the decoder reconstructs it.
type txBlock struct {
	levels      []int32 // up to scan index last
	last, n, qp int
}

// txCapture decodes a tile as decFrame does, recording every transform
// block it reconstructs.
type txCapture struct {
	*decFrame
	blocks *[]txBlock
}

func (c txCapture) tree(x, y, s, depth int) {
	kind := c.blockKind(x, y, s)
	if kind == blockOutside {
		c.reconOutside(x, y, s)
		return
	}
	if kind != blockImplicitSplit && (s <= c.profile.MinPartition() ||
		!c.model.CodeSplit(entropy.Reader(c.d), depth, false)) {
		c.reconLeaf(c, c.codeMode(entropy.Reader(c.d), blockChoice{}, x, y), x, y, s)
		return
	}
	for _, q := range quadrants {
		c.tree(x+q[0]*s/2, y+q[1]*s/2, s/2, depth+1)
	}
}

func (c txCapture) residual(_ video.Plane, class int, recon []uint8, stride, x, y, s, tx int) {
	scanned := c.scanned[:tx*tx]
	for by := 0; by < s; by += tx {
		for bx := 0; bx < s; bx += tx {
			last := c.model.CodeCoeffs(entropy.Reader(c.d), class, scanned, tx, -1)
			*c.blocks = append(*c.blocks, txBlock{slices.Clone(scanned[:last+1]), last, tx, c.qp})
			if last >= 0 {
				blk := recon[(y+by)*stride+x+bx:]
				transform.Reconstruct(scanned, last, tx, c.qp, blk, stride, blk, stride)
			}
		}
	}
}

// playbackTxBlocks returns the transform blocks one pass over the
// playback streams reconstructs: each packet's tiles are read again by
// a txCapture over the decoder's state, before the decoder decodes it.
func playbackTxBlocks(tb testing.TB) []txBlock {
	var blocks []txBlock
	for _, pkts := range playbackStreams(tb) {
		dec := NewDecoder()
		for _, p := range pkts {
			hdrBytes, rest, err := splitHeader(p.Data)
			if err != nil {
				tb.Fatal(err)
			}
			hdr, err := readHeader(hdrBytes)
			if err != nil {
				tb.Fatal(err)
			}
			sb := hdr.profile.SuperblockSize()
			pw, ph := padDim(hdr.width, sb), padDim(hdr.height, sb)
			tiles := 1 << hdr.log2Tiles
			tileData, _, err := splitTiles(rest, tiles, hdr.profile.Restoration())
			if err != nil {
				tb.Fatal(err)
			}
			var valid [numRefSlots]bool
			for slot, r := range dec.refs {
				valid[slot] = r != nil && !hdr.keyframe
			}
			c := txCapture{allocDecFrame(hdr), &blocks}
			recon := video.NewFrame(pw, ph)
			carried := dec.model // a single-tile inter frame adapts it in place
			if carried != nil {
				carried = new(entropy.Model)
				*carried = *dec.model
			}
			for t := range tiles {
				x0, x1 := tileSpan(t, tiles, pw, sb)
				c.resetForFrame(hdr.qp, hdr.keyframe, dec.refs, valid, recon,
					c.frameModel(carried, tiles, hdr.keyframe), x0, x1)
				c.d.Reset(tileData[t])
				for y := 0; y < ph; y += sb {
					for x := x0; x < x1; x += sb {
						c.tree(x, y, sb, 0)
					}
				}
				if c.d.Overrun() {
					tb.Fatalf("capture overran tile %d", t)
				}
			}
			if _, err := dec.Decode(p.Data); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return blocks
}

// BenchmarkReconstructPlayback replays the transform blocks of one pass
// over the playback streams through transform.Reconstruct, one sub-benchmark per
// transform size, each op every block of that size once, into one
// block-sized plane over a fixed prediction.
func BenchmarkReconstructPlayback(b *testing.B) {
	blocks := playbackTxBlocks(b)
	var pred, plane [32 * 32]uint8
	for i := range pred {
		pred[i] = uint8(i * 7)
	}
	for _, n := range []int{4, 8, 16, 32} {
		var sized []txBlock
		scanned := make([]int32, n*n)
		for _, blk := range blocks {
			if blk.n == n {
				sized = append(sized, blk)
			}
		}
		if len(sized) == 0 {
			continue
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportMetric(float64(len(sized)), "blocks")
			for i := 0; i < b.N; i++ {
				for _, blk := range sized {
					copy(scanned, blk.levels)
					transform.Reconstruct(scanned, blk.last, n, blk.qp, pred[:], n, plane[:], n)
				}
			}
		})
	}
}
