package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"openvcu/internal/codec"
	"openvcu/internal/codec/rc"
	"openvcu/internal/video"
)

// liveWorkload is low-latency single-output transcoding: one stream fed
// a frame at a time through a one-pass, hardware-restricted H.264-class
// encoder that splits each frame over two tile columns and two pool
// workers. One operation is one Encoder.Encode call, so the metric is
// per-frame latency, not throughput: the same encoder as upload_ladder,
// used the other way.
type liveWorkload struct {
	res    video.Resolution
	frames int // per stream; a new stream starts when one ends
	fps    int
	// psnrFloor gates the decoded stream against its source.
	psnrFloor float64

	cfg     codec.Config
	source  []*video.Frame
	streams []*liveStream
	ops     int
	// failures are the per-operation check failures run saw.
	failures []string
}

// liveStream is the output of one pass over the source clip.
type liveStream struct {
	packets []codec.Packet
	frames  int // frames fed in
}

func newLiveWorkload(smoke bool) *liveWorkload {
	l := &liveWorkload{res: video.Res360p, frames: 120, fps: 30, psnrFloor: 30}
	if smoke {
		l.res, l.frames, l.psnrFloor = video.Res144p, 6, 20
	}
	return l
}

func (l *liveWorkload) setup(seed uint64) error {
	rng := newRNG(seed ^ 0x6c697665) // "live"
	src := video.NewSource(video.SourceConfig{
		Name: "live", Width: l.res.Width, Height: l.res.Height, FPS: l.fps, Frames: l.frames,
		Seed:   rng.next(),
		Detail: 0.5 * rng.jitter(0.1), Motion: 1.5 * rng.jitter(0.1),
		ObjectMotion: 2.5 * rng.jitter(0.1), Objects: 2,
	})
	l.source = src.Frames(l.frames)
	l.cfg = codec.Config{
		Profile: codec.H264Class, Width: l.res.Width, Height: l.res.Height, FPS: l.fps,
		GOPLength: 60, TileColumns: 2, Workers: 2, Speed: 2, Hardware: true,
		RC: rc.Config{Mode: rc.ModeOnePass, BaseQP: 30,
			TargetBitrate: int(0.1 * float64(l.res.Pixels()) * float64(l.fps))},
	}
	l.streams, l.ops, l.failures = nil, 0, nil
	return nil
}

func (l *liveWorkload) warm() error {
	enc, err := codec.NewEncoder(l.cfg)
	if err != nil {
		return err
	}
	n := len(l.source)
	if n > 10 {
		n = 10
	}
	for _, f := range l.source[:n] {
		if _, err := enc.Encode(f); err != nil {
			return err
		}
	}
	return enc.Close()
}

func (l *liveWorkload) run(deadline time.Time, rec *recorder, tr *tracer) error {
	for {
		enc, err := codec.NewEncoder(l.cfg)
		if err != nil {
			return err
		}
		st := &liveStream{}
		l.streams = append(l.streams, st)
		for _, f := range l.source {
			f := f
			rec.op(func() float64 {
				op := l.ops
				l.ops++
				sp := tr.begin("codec.encode", op)
				pkts, err := enc.Encode(f)
				tr.end(sp)
				if err != nil {
					l.failures = append(l.failures, fmt.Sprintf("frame %d: %v", op, err))
				}
				st.packets = append(st.packets, pkts...)
				st.frames++
				return 1
			})
			// The first stream always runs to its end, so that every run
			// of a seed has one whole stream to fingerprint.
			if len(l.streams) > 1 && !time.Now().Before(deadline) {
				break
			}
		}
		pkts, err := enc.Flush()
		if err != nil {
			return err
		}
		st.packets = append(st.packets, pkts...)
		if err := enc.Close(); err != nil {
			return err
		}
		if !time.Now().Before(deadline) {
			return nil
		}
	}
}

// liveLimit is the live latency limit in frame periods: the usefulness
// window cluster.DefaultOverloadConfig gives a live chunk (3× its wall
// duration), applied to one frame.
const liveLimit = 3

func (l *liveWorkload) verify(rec *recorder) verdict {
	v := verdict{attempted: l.ops, failed: len(l.failures), notes: l.failures, exact: map[string]float64{}}
	var firstHash uint64
	for i, st := range l.streams {
		dec, err := codec.DecodeSequence(st.packets)
		if err != nil || len(dec) != st.frames {
			v.failed += st.frames
			v.notes = append(v.notes, fmt.Sprintf("stream %d: decoded %d of %d frames: %v", i, len(dec), st.frames, err))
			continue
		}
		if psnr := video.SequencePSNR(l.source[:st.frames], dec); psnr < l.psnrFloor {
			v.failed += st.frames
			v.notes = append(v.notes, fmt.Sprintf("stream %d: PSNR %.2f dB under the %.0f dB floor", i, psnr, l.psnrFloor))
		} else if i == 0 {
			v.exact["live_psnr_db"] = psnr
		}
		if st.frames != len(l.source) {
			continue // cut short by the deadline: nothing to compare it with
		}
		h := fnv.New64a()
		bits := 0
		for _, p := range st.packets {
			h.Write(p.Data)
			bits += p.Bits()
		}
		if i == 0 {
			firstHash = h.Sum64()
			v.exact["live_bits_per_pixel"] = float64(bits) / float64(st.frames*l.res.Pixels())
			v.digest = fmt.Sprintf("%016x", firstHash)
		} else if h.Sum64() != firstHash {
			v.failed += st.frames
			v.notes = append(v.notes, fmt.Sprintf("stream %d: packets differ from stream 0", i))
		}
	}
	v.finish(rec, liveLimit*1000/float64(l.fps))
	return v
}
