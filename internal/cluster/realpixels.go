package cluster

import (
	"bytes"

	"openvcu/internal/codec"
	"openvcu/internal/codec/rc"
	"openvcu/internal/transcode"
	"openvcu/internal/video"
)

// Real-pixels mode bridges the control-plane simulation and the real
// codec: transcode steps actually encode procedurally-generated chunks,
// a corrupting VCU actually flips bytes in the bitstream, and the
// assemble step's "high-level integrity checks" (§4.4) actually decode
// and length-check every chunk. Detection probabilities are no longer a
// configured constant — they emerge from what a byte flip really does to
// an arithmetic-coded stream (decode error, frame-count mismatch, or an
// undetected garbage frame that escapes).

// Each chunk's real encode is kept small (the DES schedules thousands
// of steps): realWidth×realHeight, realFrames frames, at realQP.
const (
	realWidth  = 48
	realHeight = 32
	realFrames = 4
	realQP     = 36
)

// chunkFrames synthesizes the source frames for one chunk of one video,
// deterministic in (video, step).
func (c *Cluster) chunkFrames(s *Step) []*video.Frame {
	return video.NewSource(video.SourceConfig{
		Width: realWidth, Height: realHeight,
		Seed:   uint64(s.graph.ID)*1009 + uint64(s.ID)*31 + 7,
		Detail: 0.5, Motion: 1, Objects: 1, ObjectMotion: 2,
	}).Frames(realFrames)
}

// encodeChunk runs the real encode of a transcode step's chunk, from
// its deterministic source, under the executed request's profile: under
// brownout the real encode runs the downshifted profile, like the
// modeled ops do. ConstQP hardware encodes are byte-reproducible, so
// every call returns the same packets.
func (c *Cluster) encodeChunk(s *Step) ([]codec.Packet, error) {
	res, err := transcode.SOT(c.chunkFrames(s), 30, transcode.OutputSpec{
		Name:       "real",
		Resolution: video.Resolution{Name: "real", Width: realWidth, Height: realHeight},
		Profile:    s.execReq.Profile,
		Speed:      2,
		Hardware:   true,
		RC:         rc.Config{Mode: rc.ModeConstQP, BaseQP: realQP},
	})
	if err != nil {
		return nil, err
	}
	return res.Outputs[0].Packets, nil
}

// realEncode runs the actual encode for a transcode step and stores the
// packets on the step. corrupted flips one byte of one packet — what a
// silently-faulty VCU does to its output.
func (c *Cluster) realEncode(s *Step, corrupted bool) error {
	pkts, err := c.encodeChunk(s)
	if err != nil {
		return err
	}
	if corrupted && len(pkts) > 0 {
		pi := int(c.rand() * float64(len(pkts)))
		data := append([]byte(nil), pkts[pi].Data...)
		data[int(c.rand()*float64(len(data)))] ^= byte(1 + int(c.rand()*254))
		pkts[pi].Data = data
	}
	s.Packets = pkts
	return nil
}

// auditVerifyReal is the real-pixels deep re-check behind one audit
// sample: re-run the step's encode (encodeChunk, the encode realEncode
// ran) as a trusted reference and compare the stored packets byte for
// byte. Strictly stronger than the structural decode check at assembly —
// corruption that decodes to the right shape still differs from the
// reference — which is what lets the auditor catch escapes the
// delivery-path checks cannot, at a cost too high to pay on more than a
// budgeted sample.
func (c *Cluster) auditVerifyReal(st *Step) bool {
	if st.execReq == nil {
		return true
	}
	ref, err := c.encodeChunk(st)
	if err != nil || len(ref) != len(st.Packets) {
		return false
	}
	for i := range ref {
		if !bytes.Equal(ref[i].Data, st.Packets[i].Data) {
			return false
		}
	}
	return true
}

// verifyChunks runs the real integrity checks over a graph's transcode
// steps: every chunk must decode cleanly to the expected frame count.
// It returns the steps that failed verification. Corruption that decodes
// to the right shape escapes — exactly the paper's "the system will have
// bad video chunks escape".
func (c *Cluster) verifyChunks(g *Graph) []*Step {
	var bad []*Step
	for _, s := range g.Steps {
		if s.Kind != StepTranscode || s.State != StepDone || s.Software {
			continue
		}
		dec, err := codec.DecodeSequence(s.Packets)
		if err != nil || len(dec) != realFrames {
			bad = append(bad, s)
			continue
		}
		// Chunk verified structurally; any remaining corruption escaped.
	}
	return bad
}
