package container

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"testing"

	"openvcu/internal/codec"
	"openvcu/internal/codec/rc"
	"openvcu/internal/video"
)

func encodeTestStream(t *testing.T, n int) (*codec.SequenceResult, []*video.Frame) {
	t.Helper()
	frames := video.NewSource(video.SourceConfig{
		Width: 64, Height: 64, Seed: 1, Detail: 0.5, Motion: 1}).Frames(n)
	res, err := codec.EncodeSequence(codec.Config{
		Profile: VP9ClassForTest(), Width: 64, Height: 64,
		RC: rc.Config{BaseQP: 35}}, frames)
	if err != nil {
		t.Fatal(err)
	}
	return res, frames
}

// VP9ClassForTest avoids an unused-import dance in table helpers.
func VP9ClassForTest() codec.Profile { return codec.VP9Class }

func TestWriterReaderRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name    string
		frames  int
		indexed bool
	}{
		{"four frames", 4, false},
		// A valid stream with no packets: the 12-byte footer is shorter
		// than a packet header.
		{"no packets, index footer", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var res codec.SequenceResult
			if tc.frames > 0 {
				r, _ := encodeTestStream(t, tc.frames)
				res = *r
			}
			var buf bytes.Buffer
			w := NewWriter(&buf)
			info := StreamInfo{Profile: codec.VP9Class, Width: 64, Height: 64, FPS: 30, FrameCount: tc.frames}
			if err := w.WriteHeader(info); err != nil {
				t.Fatal(err)
			}
			for _, p := range res.Packets {
				if err := w.WritePacket(p); err != nil {
					t.Fatal(err)
				}
			}
			if tc.indexed {
				if err := w.WriteIndex(); err != nil {
					t.Fatal(err)
				}
				ir, err := OpenIndexed(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if n := len(ir.Chunks()); n != 0 {
					t.Fatalf("index of a packetless stream lists %d chunks", n)
				}
			}
			gotInfo, pkts, err := NewReader(&buf).ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			if gotInfo != info {
				t.Fatalf("info %+v want %+v", gotInfo, info)
			}
			if len(pkts) != len(res.Packets) {
				t.Fatalf("%d packets want %d", len(pkts), len(res.Packets))
			}
			// The round-tripped stream must still decode.
			dec, err := codec.DecodeSequence(pkts)
			if err != nil {
				t.Fatal(err)
			}
			if len(dec) != tc.frames {
				t.Fatalf("decoded %d frames want %d", len(dec), tc.frames)
			}
		})
	}
}

func TestCorruptionDetected(t *testing.T) {
	res, frames := encodeTestStream(t, 2)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.WriteHeader(StreamInfo{Profile: codec.VP9Class, Width: 64, Height: 64, FPS: 30, FrameCount: len(frames)})
	for _, p := range res.Packets {
		_ = w.WritePacket(p)
	}
	data := buf.Bytes()
	data[len(data)-3] ^= 0xff // flip a bit in the last packet body
	_, _, err := NewReader(bytes.NewReader(data)).ReadAll()
	if err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestFrameCountMismatchDetected(t *testing.T) {
	res, _ := encodeTestStream(t, 3)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.WriteHeader(StreamInfo{Profile: codec.VP9Class, Width: 64, Height: 64, FPS: 30, FrameCount: 99})
	for _, p := range res.Packets {
		_ = w.WritePacket(p)
	}
	if _, _, err := NewReader(&buf).ReadAll(); err == nil {
		t.Fatal("length integrity violation not detected")
	}
}

func TestTruncationDetected(t *testing.T) {
	res, frames := encodeTestStream(t, 2)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.WriteHeader(StreamInfo{Profile: codec.VP9Class, Width: 64, Height: 64, FPS: 30, FrameCount: len(frames)})
	for _, p := range res.Packets {
		_ = w.WritePacket(p)
	}
	data := buf.Bytes()[:buf.Len()-5]
	_, _, err := NewReader(bytes.NewReader(data)).ReadAll()
	if err == nil || err == io.EOF {
		t.Fatalf("truncation not detected: %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOPE00000000000000"))).ReadHeader(); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestWriteBeforeHeaderRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePacket(codec.Packet{Data: []byte{1}}); err == nil {
		t.Fatal("packet before header accepted")
	}
}

func TestChunkIndexRandomAccess(t *testing.T) {
	// Three closed GOPs; the index must locate each chunk and each chunk
	// must decode standalone.
	frames := video.NewSource(video.SourceConfig{
		Width: 64, Height: 64, Seed: 5, Detail: 0.5, Motion: 1}).Frames(9)
	res, err := codec.EncodeSequence(codec.Config{
		Profile: codec.VP9Class, Width: 64, Height: 64, GOPLength: 3,
		RC: rc.Config{BaseQP: 35}}, frames)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.WriteHeader(StreamInfo{Profile: codec.VP9Class, Width: 64, Height: 64,
		FPS: 30, FrameCount: len(frames)})
	for _, p := range res.Packets {
		_ = w.WritePacket(p)
	}
	if err := w.WriteIndex(); err != nil {
		t.Fatal(err)
	}

	// Sequential readers must still work, stopping cleanly at the footer.
	_, pkts, err := NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatalf("sequential read with footer: %v", err)
	}
	if len(pkts) != len(res.Packets) {
		t.Fatalf("sequential read %d packets, want %d", len(pkts), len(res.Packets))
	}

	ir, err := OpenIndexed(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	chunks := ir.Chunks()
	if len(chunks) != 3 {
		t.Fatalf("%d chunks indexed, want 3", len(chunks))
	}
	for i, e := range chunks {
		if e.DisplayIdx != i*3 {
			t.Fatalf("chunk %d starts at display %d, want %d", i, e.DisplayIdx, i*3)
		}
		cp, err := ir.ReadChunk(i)
		if err != nil {
			t.Fatalf("ReadChunk(%d): %v", i, err)
		}
		dec, err := codec.DecodeSequence(cp)
		if err != nil {
			t.Fatalf("chunk %d does not decode standalone: %v", i, err)
		}
		if len(dec) != 3 {
			t.Fatalf("chunk %d decoded %d frames, want 3", i, len(dec))
		}
		// The middle chunk's frames must match a full decode.
		full, _ := codec.DecodeSequence(res.Packets)
		for j, f := range dec {
			if video.MSE(f.Y, full[i*3+j].Y) != 0 {
				t.Fatalf("chunk %d frame %d differs from sequential decode", i, j)
			}
		}
	}
	if _, err := ir.ReadChunk(5); err == nil {
		t.Fatal("out-of-range chunk accepted")
	}
}

// indexedTestStream writes a 3-chunk indexed container and returns its
// bytes.
func indexedTestStream(t *testing.T) []byte {
	t.Helper()
	frames := video.NewSource(video.SourceConfig{
		Width: 64, Height: 64, Seed: 9, Detail: 0.5, Motion: 1}).Frames(9)
	res, err := codec.EncodeSequence(codec.Config{
		Profile: codec.VP9Class, Width: 64, Height: 64, GOPLength: 3,
		RC: rc.Config{BaseQP: 35}}, frames)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.WriteHeader(StreamInfo{Profile: codec.VP9Class, Width: 64, Height: 64,
		FPS: 30, FrameCount: len(frames)})
	for _, p := range res.Packets {
		_ = w.WritePacket(p)
	}
	if err := w.WriteIndex(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChunkChecksumRoundTrip: the chunk-level CRCs written into the
// index footer verify on read for every chunk of a clean stream.
func TestChunkChecksumRoundTrip(t *testing.T) {
	data := indexedTestStream(t)
	ir, err := OpenIndexed(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ir.Chunks() {
		if e.CRC == 0 {
			t.Fatalf("chunk at offset %d has no checksum", e.Offset)
		}
	}
	if err := ir.VerifyChunks(); err != nil {
		t.Fatalf("clean stream failed chunk verification: %v", err)
	}
}

// TestChunkChecksumCatchesConsistentTamper models the §4.4 silent
// corrupter at rest: a tamper that rewrites a packet payload AND its
// own per-packet CRC is self-consistent, so packet framing and a
// sequential ReadAll both pass — only the chunk-level checksum in the
// index footer still pins the chunk to what the writer emitted.
func TestChunkChecksumCatchesConsistentTamper(t *testing.T) {
	data := indexedTestStream(t)
	ir, err := OpenIndexed(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with the middle chunk's keyframe packet: flip a payload
	// byte, then recompute the packet's own CRC so the per-packet check
	// passes. Packet layout after the entry offset: 4B size, flags, QP,
	// 4B display index, 4B CRC, payload.
	off := ir.Chunks()[1].Offset
	size := int64(binary.BigEndian.Uint32(data[off : off+4]))
	data[off+14+size/2] ^= 0x40
	binary.BigEndian.PutUint32(data[off+10:off+14],
		crc32.ChecksumIEEE(data[off+14:off+14+size]))

	// The per-packet layer is blind to the consistent tamper.
	if _, _, err := NewReader(bytes.NewReader(data)).ReadAll(); err != nil {
		t.Fatalf("sequential read should pass per-packet checks: %v", err)
	}
	// The chunk layer is not.
	ir, err = OpenIndexed(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ir.ReadChunk(1); err == nil {
		t.Fatal("self-consistent tamper not caught by chunk checksum")
	}
	if err := ir.VerifyChunks(); err == nil {
		t.Fatal("VerifyChunks missed the tampered chunk")
	}
	// Untouched chunks still verify.
	if _, err := ir.ReadChunk(0); err != nil {
		t.Fatalf("untampered chunk 0 failed: %v", err)
	}
	if _, err := ir.ReadChunk(2); err != nil {
		t.Fatalf("untampered chunk 2 failed: %v", err)
	}
}

func TestOpenIndexedRejectsUnindexed(t *testing.T) {
	res, frames := encodeTestStream(t, 2)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.WriteHeader(StreamInfo{Profile: codec.VP9Class, Width: 64, Height: 64,
		FPS: 30, FrameCount: len(frames)})
	for _, p := range res.Packets {
		_ = w.WritePacket(p)
	}
	if _, err := OpenIndexed(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("unindexed stream accepted")
	}
}
