package codec

// Frame-parallel GOP encoding for the batch path.
//
// The scheduler is dependency-tracked: a frame is ready to encode when
// every reference slot it predicts from holds the frame it would hold in
// sequential coding order. The dependency analysis is short:
//
//   - Every shown frame refreshes RefLast (see encodeOne's refresh
//     rules), and the next frame predicts from it — so shown frames form
//     a serial chain. Golden and alt-ref refreshes ride the same chain.
//   - A keyframe refreshes every slot, resets the adaptive entropy
//     contexts, and invalidates prior references — nothing after a
//     keyframe depends on anything before it.
//
// Ref-slot ready signals therefore collapse to: frames within a closed
// GOP are a chain (no intra-GOP parallelism without changing the
// bitstream), and GOPs are mutually independent. The scheduler's grain
// is the GOP span; spans run concurrently up to cfg.Workers, each on its
// own Encoder whose tiles and filters run inline (the parallelism budget
// is spent across frames, not within them — the right trade for batch
// throughput, paper §2.1's chunk-parallel offline pipeline).
//
// Exactness gate: rate control must be frame-state-free, or each span's
// controller would diverge from the sequential one. ConstQP qualifies
// (FrameQP and Lambda are pure, Update is a no-op); the adaptive modes
// do not, and fall back to sequential EncodeSequence. Byte-identity is
// pinned by TestEncodeSequenceParallelMatchesSequential.

import (
	"slices"

	"openvcu/internal/codec/rc"
	"openvcu/internal/par"
	"openvcu/internal/video"
)

// gopSpan is one closed GOP: display frames [start, end).
type gopSpan struct{ start, end int }

// gopSpans splits n display frames at keyframe boundaries. Scene-cut
// keyframes only exist in two-pass flows, which never reach the parallel
// path, so boundaries are exactly the GOPLength cadence.
func gopSpans(gopLength, n int) []gopSpan {
	var spans []gopSpan
	for s := 0; s < n; s += gopLength {
		e := s + gopLength
		if e > n {
			e = n
		}
		spans = append(spans, gopSpan{s, e})
	}
	return spans
}

// EncodeSequenceParallel is the batch entry point with frame-parallel
// GOP scheduling: closed GOPs encode concurrently (bounded by
// cfg.Workers), producing a bitstream byte-identical to EncodeSequence.
// Falls back to sequential encoding when the rate-control mode carries
// cross-frame state, when there is only one GOP, or when Workers is 1 —
// the fallback is always exact, never an approximation.
func EncodeSequenceParallel(cfg Config, frames []*video.Frame) (*SequenceResult, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	spans := gopSpans(c.GOPLength, len(frames))
	if c.RC.Mode != rc.ModeConstQP || c.Workers <= 1 || len(spans) <= 1 {
		return EncodeSequence(cfg, frames)
	}

	spanPkts := make([][]Packet, len(spans))
	err = par.Do(len(spans), c.Workers, func(si int) (err error) {
		spanPkts[si], err = encodeGOPSpan(&c, frames, spans[si])
		return err
	})
	if err != nil {
		return nil, err
	}

	return tally(slices.Concat(spanPkts...), len(frames)), nil
}

// encodeGOPSpan encodes one closed GOP on a fresh Encoder whose frame
// counter is preset to the span's global start index, so keyframe
// cadence, golden-refresh phase (displayIdx % GoldenPeriod) and alt-ref
// group closure all see the same indices as the sequential encoder.
func encodeGOPSpan(c *Config, frames []*video.Frame, sp gopSpan) ([]Packet, error) {
	cfg := *c
	cfg.Workers = 1 // GOPs are the parallel grain; tiles and filters run inline
	enc, err := NewEncoder(cfg)
	if err != nil {
		return nil, err
	}
	enc.frameIdx = sp.start
	return enc.encodeAll(frames[sp.start:sp.end])
}
