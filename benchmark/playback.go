package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"time"

	"openvcu/internal/codec"
	"openvcu/internal/codec/rc"
	"openvcu/internal/container"
	"openvcu/internal/transcode"
	"openvcu/internal/video"
)

// playbackWorkload is the read side: stored streams are opened through
// their chunk index, read chunk by chunk and decoded. The decoder, the
// range decoder and the container read path do all the work and the
// encoder none, so it shows what an encoder-only optimisation, or a
// bitstream change, costs viewers, auditors and verifiers. One operation
// is one pass over the four stored streams (a three-rung VP9-class
// ladder and one H.264-class stream).
type playbackWorkload struct {
	res    video.Resolution
	frames int
	chunk  int // frames per closed-GOP chunk
	fps    int
	// psnrFloors gate each decoded stream against its scaled source: the
	// three ladder rungs, lowest first, then the H.264-class stream. They
	// sit six standard deviations under the mean of seventy seeds.
	psnrFloors [4]float64

	streams []*playbackStream
	ops     int
	// failures are the per-operation check failures run saw.
	failures []string
}

type playbackStream struct {
	name   string
	muxed  []byte
	source []*video.Frame // at the stream's resolution
	// hash is the fingerprint of the frames the first pass decoded.
	hash   uint64
	hashed bool
}

func newPlaybackWorkload(smoke bool) *playbackWorkload {
	p := &playbackWorkload{res: video.Res360p, frames: 12, chunk: 6, fps: 30, psnrFloors: [4]float64{21, 29, 35, 42.5}}
	if smoke {
		p.res, p.frames, p.chunk, p.psnrFloors = video.Res144p, 4, 2, [4]float64{15, 15, 15, 15}
	}
	return p
}

func (p *playbackWorkload) setup(seed uint64) error {
	rng := newRNG(seed ^ 0x706c6179) // "play"
	clip := func(name string) []*video.Frame {
		return video.NewSource(video.SourceConfig{
			Name: name, Width: p.res.Width, Height: p.res.Height, FPS: p.fps, Frames: p.frames,
			Seed:   rng.next(),
			Detail: 0.5 * rng.jitter(0.1), Motion: 1.5 * rng.jitter(0.1),
			ObjectMotion: 2.5 * rng.jitter(0.1), Objects: 2,
		}).Frames(p.frames)
	}
	p.streams = p.streams[:0]

	ladderSrc := clip("ladder")
	specs := transcode.LadderSpecs(p.res, codec.VP9Class, 0.12, p.fps, true)
	for i := range specs {
		specs[i].Speed, specs[i].Workers = 2, 1
	}
	ladder, err := transcode.Chunked(transcode.SplitChunks(ladderSrc, p.chunk), p.fps, specs, 2)
	if err != nil {
		return err
	}
	for _, o := range ladder.Outputs {
		r := o.Spec.Resolution
		muxed, err := mux(o.Spec.Profile, r.Width, r.Height, p.fps, o.Packets)
		if err != nil {
			return err
		}
		p.streams = append(p.streams, &playbackStream{name: o.Spec.Name, muxed: muxed, source: scaleAll(ladderSrc, r)})
	}

	h264Src := clip("h264")
	h264, err := codec.EncodeSequence(codec.Config{
		Profile: codec.H264Class, Width: p.res.Width, Height: p.res.Height, FPS: p.fps,
		GOPLength: p.chunk, Speed: 2, TileColumns: 2, Workers: 2,
		RC: rc.Config{Mode: rc.ModeConstQP, BaseQP: 28},
	}, h264Src)
	if err != nil {
		return err
	}
	muxed, err := mux(codec.H264Class, p.res.Width, p.res.Height, p.fps, h264.Packets)
	if err != nil {
		return err
	}
	p.streams = append(p.streams, &playbackStream{name: "360p-h264", muxed: muxed, source: h264Src})
	p.ops, p.failures = 0, nil
	return nil
}

func (p *playbackWorkload) warm() error {
	_, err := p.play(p.streams[len(p.streams)-1], nil, -1)
	return err
}

func (p *playbackWorkload) run(deadline time.Time, rec *recorder, tr *tracer) error {
	for time.Now().Before(deadline) || p.ops == 0 {
		op := p.ops
		p.ops++
		decoded := make([][]*video.Frame, len(p.streams))
		var err error
		rec.op(func() float64 {
			root := tr.begin("playback.pass", op)
			defer tr.end(root)
			for i, st := range p.streams {
				if decoded[i], err = p.play(st, tr, op); err != nil {
					err = fmt.Errorf("stream %s: %w", st.name, err)
					break
				}
			}
			return 1
		})
		// Fingerprinting is the benchmark's own work, so it is not timed.
		for i, st := range p.streams {
			if err == nil {
				err = st.keep(decoded[i])
			}
		}
		if err != nil {
			p.failures = append(p.failures, fmt.Sprintf("pass %d: %v", op, err))
		}
	}
	return nil
}

// play opens one stored stream and decodes every chunk of it.
func (p *playbackWorkload) play(st *playbackStream, tr *tracer, op int) ([]*video.Frame, error) {
	sp := tr.begin("container.open_indexed", op)
	ir, err := container.OpenIndexed(bytes.NewReader(st.muxed))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	dec := codec.NewDecoder()
	var frames []*video.Frame
	for k := range ir.Chunks() {
		sp = tr.begin("container.read_chunk", op)
		pkts, err := ir.ReadChunk(k)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("chunk %d: %w", k, err)
		}
		sp = tr.begin("codec.decode", op)
		for _, pkt := range pkts {
			f, err := dec.Decode(pkt.Data)
			if err != nil {
				tr.end(sp)
				return nil, fmt.Errorf("chunk %d: %w", k, err)
			}
			if f != nil {
				frames = append(frames, f)
			}
		}
		tr.end(sp)
	}
	if len(frames) != ir.Info().FrameCount || len(frames) != p.frames {
		return nil, fmt.Errorf("decoded %d frames, header says %d, want %d", len(frames), ir.Info().FrameCount, p.frames)
	}
	return frames, nil
}

// keep fingerprints the stream's first decode and holds later ones to it.
func (st *playbackStream) keep(frames []*video.Frame) error {
	h := fnv.New64a()
	for _, f := range frames {
		h.Write(f.Y)
		h.Write(f.U)
		h.Write(f.V)
	}
	switch {
	case !st.hashed:
		st.hash, st.hashed = h.Sum64(), true
	case h.Sum64() != st.hash:
		return fmt.Errorf("stream %s: decoded frames differ from the first pass", st.name)
	}
	return nil
}

func (p *playbackWorkload) verify(rec *recorder) verdict {
	v := verdict{attempted: p.ops, failed: len(p.failures), notes: p.failures, exact: map[string]float64{}}
	h := fnv.New64a()
	var psnrSum float64
	for i, st := range p.streams {
		frames, err := p.play(st, nil, -1)
		if err != nil {
			v.failed = v.attempted
			v.notes = append(v.notes, fmt.Sprintf("stream %s: %v", st.name, err))
			continue
		}
		psnr := video.SequencePSNR(st.source, frames)
		if floor := p.psnrFloors[i]; psnr < floor {
			v.failed = v.attempted
			v.notes = append(v.notes, fmt.Sprintf("stream %s: PSNR %.2f dB under the %.1f dB floor", st.name, psnr, floor))
		}
		psnrSum += psnr
		fmt.Fprintf(h, "%s:%016x;", st.name, st.hash)
	}
	v.exact["playback_psnr_db"] = psnrSum / float64(len(p.streams))
	v.digest = fmt.Sprintf("%016x", h.Sum64())
	// A pass must at least keep up with playing its streams one after
	// the other in real time.
	v.finish(rec, float64(len(p.streams)*p.frames)/float64(p.fps)*1000)
	return v
}
