package container

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"openvcu/internal/codec"
)

// allocatedBy reports the bytes fn allocates (cumulative, so a buffer
// freed before fn returns still counts).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// hostileSizeStream is a stream header followed by one packet header
// that claims a 1 GiB payload and delivers none of it: 30 bytes.
func hostileSizeStream() []byte {
	var buf bytes.Buffer
	_ = NewWriter(&buf).WriteHeader(StreamInfo{Profile: codec.VP9Class, Width: 64, Height: 64, FPS: 30, FrameCount: 1})
	hdr := make([]byte, 14)
	binary.BigEndian.PutUint32(hdr, 1<<30)
	return append(buf.Bytes(), hdr...)
}

// TestHostilePacketSizeDoesNotAllocateIt: a packet header's size field
// is a claim, not a reason to allocate — the stream above must fail as
// truncated having cost about the first buffer, not the gigabyte.
func TestHostilePacketSizeDoesNotAllocateIt(t *testing.T) {
	data := hostileSizeStream()
	var err error
	got := allocatedBy(func() { _, _, err = NewReader(bytes.NewReader(data)).ReadAll() })
	if err == nil {
		t.Fatal("truncated 1 GiB packet accepted")
	}
	if got >= 2<<20 {
		t.Fatalf("a %d-byte stream made the reader allocate %d bytes", len(data), got)
	}
}

// FuzzContainer feeds arbitrary bytes to both readers: the sequential
// one, and — when the footer parses — the indexed one's chunk sweep.
// Neither may panic, and neither may allocate more than the first
// packet buffer plus a small multiple of the input: every size and
// count in the format is bounded by bytes that actually arrived.
func FuzzContainer(f *testing.F) {
	// A real stream of two chunks.
	var two bytes.Buffer
	w := NewWriter(&two)
	_ = w.WriteHeader(StreamInfo{Profile: codec.VP9Class, Width: 64, Height: 64, FPS: 30, FrameCount: 3})
	for i, p := range []codec.Packet{
		{Data: []byte("key frame 0"), Keyframe: true},
		{Data: []byte("inter 1")},
		{Data: []byte("key frame 2"), Keyframe: true},
	} {
		p.Show, p.DisplayIdx, p.QP = true, i, 30
		_ = w.WritePacket(p)
	}
	_ = w.WriteIndex()
	f.Add(two.Bytes())

	f.Add(hostileSizeStream())

	// No packets, an index footer.
	var empty bytes.Buffer
	w = NewWriter(&empty)
	_ = w.WriteHeader(StreamInfo{Profile: codec.H264Class, Width: 64, Height: 64, FPS: 30})
	_ = w.WriteIndex()
	f.Add(empty.Bytes())

	// The same footer claiming 2^32-1 entries.
	huge := bytes.Clone(empty.Bytes())
	binary.BigEndian.PutUint32(huge[len(huge)-8:], 0xFFFFFFFF)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		read := func() {
			_, _, _ = NewReader(bytes.NewReader(data)).ReadAll()
			if ir, err := OpenIndexed(bytes.NewReader(data)); err == nil {
				_ = ir.VerifyChunks()
			}
		}
		// The readers allocate the same bytes on every pass; the fuzzing
		// engine's goroutines, counted by the same process-wide total,
		// now and then add a few kilobytes to one. Take the smaller pass.
		got := min(allocatedBy(read), allocatedBy(read))
		if limit := uint64(2*firstPacketAlloc + 32*len(data)); got > limit {
			t.Fatalf("%d input bytes made the readers allocate %d (limit %d)", len(data), got, limit)
		}
	})
}
