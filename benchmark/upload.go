package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"openvcu/internal/codec"
	"openvcu/internal/codec/rc"
	"openvcu/internal/container"
	"openvcu/internal/transcode"
	"openvcu/internal/video"
)

// uploadWorkload is the paper's upload path (Fig. 1, Fig. 2b) on real
// pixels: a muxed mezzanine is demuxed, decoded, split into closed-GOP
// chunks, transcoded chunk-parallel into the whole VP9-class ladder with
// two-pass offline rate control, muxed with a chunk index, integrity
// swept and decoded back. One operation is one uploaded video; they are
// timed a round of four at a time.
type uploadWorkload struct {
	res    video.Resolution
	frames int // per clip
	chunk  int // frames per closed-GOP chunk
	fps    int
	// smoke relaxes the PSNR floors, which are fitted to the full sizes.
	smoke bool

	specs []transcode.OutputSpec
	clips []*uploadClip
	ops   int
	// failures are the per-operation check failures run saw.
	failures []string
}

type uploadClip struct {
	cfg video.SourceConfig
	// floors gate each rung's PSNR against the scaled source, lowest
	// rung first.
	floors    [3]float64
	source    []*video.Frame
	mezzanine []byte
	// first is what the clip's first upload produced; later uploads of
	// the same clip must produce the same bytes.
	first *uploadOutput
}

type uploadOutput struct {
	rungs   [][]byte         // muxed container per rung
	decoded [][]*video.Frame // per rung
	bits    int
	pixels  int64
	hash    uint64
}

func newUploadWorkload(smoke bool) *uploadWorkload {
	u := &uploadWorkload{res: video.Res360p, frames: 12, chunk: 6, fps: 30, smoke: smoke}
	if smoke {
		u.res, u.frames, u.chunk = video.Res144p, 4, 2
	}
	return u
}

// uploadCorners is the low/high motion × low/high detail grid (vbench's
// motion × entropy spread). The seed jitters each corner by ±10 % and
// picks the texture, so seeds differ in content but not in kind. The
// PSNR floors (144p, 240p, 360p) sit six standard deviations under the
// mean of seventy seeds at the first real run (3 to 7 dB under the
// lowest of them): far enough that no seed trips one, near enough to
// catch a broken rung. A smaller loss shows in upload_psnr_db, which is
// exact per seed.
var uploadCorners = []struct {
	name           string
	detail, motion float64
	objects        int
	psnrFloors     [3]float64
}{
	{"still-flat", 0.25, 0.4, 1, [3]float64{25.5, 33, 39}},
	{"still-busy", 0.70, 0.4, 1, [3]float64{15.5, 23, 31}},
	{"moving-flat", 0.25, 3.0, 3, [3]float64{19.5, 26, 31.5}},
	{"moving-busy", 0.70, 3.0, 3, [3]float64{13, 17.5, 23.5}},
}

func (u *uploadWorkload) setup(seed uint64) error {
	rng := newRNG(seed ^ 0x75706c6f6164) // "upload"
	u.specs = transcode.LadderSpecs(u.res, codec.VP9Class, ladderBitsPerPixel, u.fps, true)
	for i := range u.specs {
		u.specs[i].Speed, u.specs[i].Workers = 2, 1
	}
	u.clips = make([]*uploadClip, len(uploadCorners))
	for i, c := range uploadCorners {
		u.clips[i] = &uploadClip{floors: c.psnrFloors, cfg: video.SourceConfig{
			Name: c.name, Width: u.res.Width, Height: u.res.Height, FPS: u.fps, Frames: u.frames,
			Seed:   rng.next(),
			Detail: c.detail * rng.jitter(0.1), Motion: c.motion * rng.jitter(0.1),
			ObjectMotion: c.motion * 1.5 * rng.jitter(0.1), Objects: c.objects,
		}}
	}
	// Two mezzanine encodes at a time: the benchmark never runs more
	// than two encoders at once.
	errs := make([]error, len(u.clips))
	var wg sync.WaitGroup
	for half := 0; half < 2; half++ {
		wg.Add(1)
		go func(half int) {
			defer wg.Done()
			for i := half; i < len(u.clips); i += 2 {
				errs[i] = u.clips[i].prepare(u.frames)
			}
		}(half)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("mezzanine %s: %w", u.clips[i].cfg.Name, err)
		}
	}
	u.ops, u.failures = 0, nil
	return nil
}

// prepare renders the clip and encodes and muxes its mezzanine.
func (c *uploadClip) prepare(frames int) error {
	c.source = video.NewSource(c.cfg).Frames(frames)
	mezz, err := codec.EncodeSequence(codec.Config{
		Profile: codec.H264Class, Width: c.cfg.Width, Height: c.cfg.Height, FPS: c.cfg.FPS,
		RC: rc.Config{Mode: rc.ModeConstQP, BaseQP: 20}, Speed: 2, Workers: 1,
	}, c.source)
	if err != nil {
		return err
	}
	c.mezzanine, err = mux(codec.H264Class, c.cfg.Width, c.cfg.Height, c.cfg.FPS, mezz.Packets)
	return err
}

// scaleAll resamples a clip to a ladder rung, the reference a decoded
// rung is compared with.
func scaleAll(frames []*video.Frame, r video.Resolution) []*video.Frame {
	out := make([]*video.Frame, len(frames))
	for i, f := range frames {
		out[i] = video.ScaleTo(f, r)
	}
	return out
}

// mux writes packets into an in-memory container with its chunk index.
func mux(profile codec.Profile, w, h, fps int, packets []codec.Packet) ([]byte, error) {
	shown := 0
	for _, p := range packets {
		if p.Show {
			shown++
		}
	}
	var buf bytes.Buffer
	cw := container.NewWriter(&buf)
	if err := cw.WriteHeader(container.StreamInfo{Profile: profile, Width: w, Height: h, FPS: fps, FrameCount: shown}); err != nil {
		return nil, err
	}
	for _, p := range packets {
		if err := cw.WritePacket(p); err != nil {
			return nil, err
		}
	}
	if err := cw.WriteIndex(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (u *uploadWorkload) warm() error {
	_, err := u.upload(u.clips[0], 2, nil, -1)
	return err
}

func (u *uploadWorkload) run(deadline time.Time, rec *recorder, tr *tracer) error {
	// One timed sample is a round over the four clips, counted as four
	// operations: the clips differ in cost by design, so a median over
	// single videos would turn on which clip happens to sit in the
	// middle, and a median over rounds does not.
	for {
		rec.op(func() float64 {
			for _, c := range u.clips {
				op := u.ops
				u.ops++
				out, err := u.upload(c, 2, tr, op)
				if err == nil {
					err = c.keep(out)
				}
				if err != nil {
					u.failures = append(u.failures, fmt.Sprintf("upload %d (%s): %v", op, c.cfg.Name, err))
				}
			}
			return float64(len(u.clips))
		})
		if !time.Now().Before(deadline) {
			break
		}
	}
	if tr == nil {
		return nil
	}
	// The traced run also checks that chunk parallelism does not change
	// the bytes: clip 0 again, one chunk at a time, untimed.
	c := u.clips[0]
	serial, err := u.upload(c, 1, nil, -1)
	if err == nil && serial.hash != c.first.hash {
		err = fmt.Errorf("ladder bytes differ between Chunked parallelism 1 and 2")
	}
	if err != nil {
		u.failures = append(u.failures, fmt.Sprintf("serial upload (%s): %v", c.cfg.Name, err))
	}
	return nil
}

// keep stores the clip's first output and holds later ones to it.
func (c *uploadClip) keep(out *uploadOutput) error {
	if c.first == nil {
		c.first = out
		return nil
	}
	if out.hash != c.first.hash {
		return fmt.Errorf("ladder bytes differ from the clip's first upload")
	}
	return nil
}

// upload runs one video through the blocking path and checks what the
// pipeline itself checks: integrity sweep and decoded length.
func (u *uploadWorkload) upload(c *uploadClip, parallelism int, tr *tracer, op int) (*uploadOutput, error) {
	root := tr.begin("upload", op)
	defer tr.end(root)

	sp := tr.begin("container.demux", op)
	_, packets, err := container.NewReader(bytes.NewReader(c.mezzanine)).ReadAll()
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("transcode.decode_source", op)
	frames, err := transcode.DecodeSource(packets)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if len(frames) != u.frames {
		return nil, fmt.Errorf("mezzanine decoded to %d frames, want %d", len(frames), u.frames)
	}

	sp = tr.begin("transcode.ladder", op)
	chunks := transcode.SplitChunks(frames, u.chunk)
	ladder, err := transcode.Chunked(chunks, u.fps, u.specs, parallelism)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	out := &uploadOutput{}
	h := fnv.New64a()
	sp = tr.begin("container.mux", op)
	for _, o := range ladder.Outputs {
		r := o.Spec.Resolution
		muxed, err := mux(o.Spec.Profile, r.Width, r.Height, u.fps, o.Packets)
		if err != nil {
			tr.end(sp)
			return nil, err
		}
		out.rungs = append(out.rungs, muxed)
		out.bits += o.TotalBits
		out.pixels += o.OutputPixels
		h.Write(muxed)
	}
	tr.end(sp)
	out.hash = h.Sum64()

	sp = tr.begin("container.index_verify", op)
	readers := make([]*container.IndexedReader, len(out.rungs))
	for i, muxed := range out.rungs {
		ir, err := container.OpenIndexed(bytes.NewReader(muxed))
		if err == nil {
			err = ir.VerifyChunks()
		}
		if err != nil {
			tr.end(sp)
			return nil, fmt.Errorf("rung %d: %w", i, err)
		}
		readers[i] = ir
	}
	tr.end(sp)

	sp = tr.begin("codec.decode_verify", op)
	defer tr.end(sp)
	for i, ir := range readers {
		var stored []codec.Packet
		for k := range ir.Chunks() {
			pkts, err := ir.ReadChunk(k)
			if err != nil {
				return nil, fmt.Errorf("rung %d chunk %d: %w", i, k, err)
			}
			stored = append(stored, pkts...)
		}
		dec, err := codec.DecodeSequence(stored)
		if err != nil {
			return nil, fmt.Errorf("rung %d: %w", i, err)
		}
		if len(dec) != u.frames || ir.Info().FrameCount != u.frames {
			return nil, fmt.Errorf("rung %d decoded to %d frames, want %d", i, len(dec), u.frames)
		}
		out.decoded = append(out.decoded, dec)
	}
	return out, nil
}

// ladderBitsPerPixel is the rate the ladder's two-pass rate control is
// asked for; an upload that spends more has lost rate control.
const ladderBitsPerPixel = 0.08

// uploadLimit is the upload latency limit: a video is playable within
// ten times its own duration.
const uploadLimit = 10

func (u *uploadWorkload) verify(rec *recorder) verdict {
	v := verdict{attempted: u.ops, failed: len(u.failures), notes: u.failures, exact: map[string]float64{}}
	var psnrSum, bits, pixels float64
	var rungs int
	h := fnv.New64a()
	for _, c := range u.clips {
		if c.first == nil {
			continue
		}
		fmt.Fprintf(h, "%s:%016x;", c.cfg.Name, c.first.hash)
		for i, dec := range c.first.decoded {
			r := u.specs[i].Resolution
			psnr := video.SequencePSNR(scaleAll(c.source, r), dec)
			floor := c.floors[i]
			if u.smoke {
				floor = 10
			}
			if psnr < floor {
				v.failed++
				v.notes = append(v.notes, fmt.Sprintf("%s rung %s: PSNR %.2f dB under the %.1f dB floor", c.cfg.Name, r.Name, psnr, floor))
			}
			psnrSum += psnr
			rungs++
		}
		if bpp := float64(c.first.bits) / float64(c.first.pixels); bpp > ladderBitsPerPixel {
			v.failed++
			v.notes = append(v.notes, fmt.Sprintf("%s: %.4f bits per pixel, over the ladder's %.2f target", c.cfg.Name, bpp, ladderBitsPerPixel))
		}
		bits += float64(c.first.bits)
		pixels += float64(c.first.pixels)
	}
	if rungs > 0 {
		v.exact["upload_psnr_db"] = psnrSum / float64(rungs)
		v.exact["upload_bits_per_pixel"] = bits / pixels
	}
	v.digest = fmt.Sprintf("%016x", h.Sum64())
	limit := uploadLimit * float64(u.frames) / float64(u.fps) * 1000
	v.finish(rec, limit)
	return v
}
