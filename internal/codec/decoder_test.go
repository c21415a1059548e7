package codec

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"openvcu/internal/bits"
	"openvcu/internal/codec/entropy"
	"openvcu/internal/codec/rc"
	"openvcu/internal/video"
)

// sameFrame reports whether a and b hold the same picture.
func sameFrame(a, b *video.Frame) bool {
	return a.Width == b.Width && a.Height == b.Height &&
		bytes.Equal(a.Y, b.Y) && bytes.Equal(a.U, b.U) && bytes.Equal(a.V, b.V)
}

// checkFreeList fails t when a frame on the decoder's free list is still
// in a reference slot or is listed twice: the next reconstruction would
// overwrite a reference, or two frames would share one buffer.
func checkFreeList(t *testing.T, dec *Decoder, when string) {
	t.Helper()
	seen := map[*video.Frame]bool{}
	for _, r := range dec.refs {
		seen[r] = true
	}
	for i, f := range dec.free {
		if seen[f] {
			t.Fatalf("%s: free[%d] is still held by a slot or listed twice", when, i)
		}
		seen[f] = true
	}
}

// withRefresh returns pkt with the refresh flags of its header replaced.
func withRefresh(t *testing.T, pkt []byte, refresh [numRefSlots]bool) []byte {
	t.Helper()
	hdrBytes, rest, err := splitHeader(pkt)
	if err != nil {
		t.Fatal(err)
	}
	h, err := readHeader(hdrBytes)
	if err != nil {
		t.Fatal(err)
	}
	h.refresh = refresh
	hb := writeHeader(h)
	return append(append([]byte{byte(len(hb))}, hb...), rest...)
}

// TestDecoderRejectsProfileSwitchOnInterFrame: an inter frame of one
// profile over references decoded under another, at the same display
// size, used to sample the references at the wrong padded size and
// panic. It is a clean error now, and a keyframe may still switch. A
// switching keyframe that refreshes LAST only empties the other slots,
// which would otherwise hold frames of the old size under the new
// profile.
func TestDecoderRejectsProfileSwitchOnInterFrame(t *testing.T) {
	frames := testSource(72, 40, 5, 4)
	h264 := mustEncode(t, Config{Profile: H264Class, Width: 72, Height: 40, RC: rc.Config{BaseQP: 32}}, frames)
	vp9 := mustEncode(t, Config{Profile: VP9Class, Width: 72, Height: 40, RC: rc.Config{BaseQP: 32}}, frames)
	dec := NewDecoder()
	if _, err := dec.Decode(h264.Packets[0].Data); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(vp9.Packets[1].Data); err == nil {
		t.Fatal("a VP9-class inter frame decoded over H.264-class references")
	}
	for i, p := range vp9.Packets {
		if _, err := dec.Decode(p.Data); err != nil {
			t.Fatalf("VP9-class packet %d after the switching keyframe: %v", i, err)
		}
	}

	dec = NewDecoder()
	if _, err := dec.Decode(h264.Packets[0].Data); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(withRefresh(t, vp9.Packets[0].Data, [numRefSlots]bool{RefLast: true})); err != nil {
		t.Fatal(err)
	}
	if dec.refs[RefGolden] != nil || dec.refs[RefAltRef] != nil {
		t.Fatal("a profile-switching keyframe left H.264-class frames in the slots it did not refresh")
	}
	for _, p := range vp9.Packets[1:] {
		_, _ = dec.Decode(p.Data) // an error or a frame, never a panic
	}
}

// TestDecoderReuseIsStateless: a decoder that has decoded one stream, and
// concealed a corrupt packet of it, decodes the next stream — a keyframe
// of another profile at the same display size — exactly as a fresh
// decoder does. The free list holds no frame a slot holds after any
// packet.
func TestDecoderReuseIsStateless(t *testing.T) {
	frames := testSource(72, 40, 13, 6)
	a := mustEncode(t, Config{Profile: VP9Class, Width: 72, Height: 40, GoldenPeriod: 2,
		RC: rc.Config{BaseQP: 32}}, frames)
	b := mustEncode(t, Config{Profile: H264Class, Width: 72, Height: 40, TileColumns: 2, Workers: 1,
		RC: rc.Config{BaseQP: 30}}, frames)
	bad := append([]byte(nil), a.Packets[3].Data...)
	for i := 5; i < len(bad); i++ {
		bad[i] = 0xFF
	}

	dec := NewDecoder()
	dec.SetConcealment(true)
	for i, p := range append(a.Packets[:3:3], Packet{Data: bad}) {
		if _, err := dec.Decode(p.Data); err != nil {
			t.Fatalf("stream A packet %d: %v", i, err)
		}
		checkFreeList(t, dec, "stream A")
	}
	if dec.Concealed != 1 {
		t.Fatalf("%d packets concealed, want the corrupt one", dec.Concealed)
	}
	fresh := NewDecoder()
	for i, p := range b.Packets {
		got, err := dec.Decode(p.Data)
		if err != nil {
			t.Fatalf("stream B packet %d: %v", i, err)
		}
		checkFreeList(t, dec, "stream B")
		want, err := fresh.Decode(p.Data)
		if err != nil {
			t.Fatal(err)
		}
		if !sameFrame(got, want) {
			t.Fatalf("stream B frame %d differs from a fresh decoder's", i)
		}
	}
}

// TestDecodedFramesAreNotRecycled: a frame Decode returned, displayed or
// concealed, is the caller's; later decodes that recycle the decoder's
// own frames leave it unchanged.
func TestDecodedFramesAreNotRecycled(t *testing.T) {
	frames := testSource(128, 64, 14, 6) // padded size = display size
	res := mustEncode(t, Config{Profile: VP9Class, Width: 128, Height: 64, GoldenPeriod: 2,
		RC: rc.Config{BaseQP: 32}}, frames)
	dec := NewDecoder()
	dec.SetConcealment(true)
	var kept, copies []*video.Frame
	for i, p := range res.Packets {
		data := p.Data
		if i == 2 {
			data = data[:len(data)/2] // truncated: concealed
		}
		f, err := dec.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if f != nil {
			kept, copies = append(kept, f), append(copies, f.Clone())
		}
	}
	if dec.Concealed == 0 {
		t.Fatal("no packet was concealed")
	}
	for i := range kept {
		if !sameFrame(kept[i], copies[i]) {
			t.Fatalf("frame %d changed after it was returned", i)
		}
	}
}

// TestDecodeAllocsPerFrame holds the decoder's steady state: a decoder
// that has seen the stream once decodes it again, keyframe first, with a
// handful of allocations per frame (the returned frame, the tile list,
// the tile closure, each fan-out's shared state, the restoration buffer)
// and none per block. AllocsPerRun pins GOMAXPROCS to 1, where every
// fan-out runs inline, so a second count reads the same decodes at
// GOMAXPROCS 2, where the decoder's tiles and filter stripes start
// goroutines. VP9-class deblocks; AV1-class also restores.
func TestDecodeAllocsPerFrame(t *testing.T) {
	frames := testSource(256, 144, 15, 8)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		profile  Profile
		hardware bool
	}{{VP9Class, true}, {AV1Class, false}} {
		res := mustEncode(t, Config{Profile: c.profile, Width: 256, Height: 144, Speed: 2,
			Hardware: c.hardware, Workers: 1, RC: rc.Config{BaseQP: 32}}, frames)
		dec := NewDecoder()
		decodeAll := func() {
			for _, p := range res.Packets {
				if _, err := dec.Decode(p.Data); err != nil {
					t.Fatal(err)
				}
			}
		}
		decodeAll()
		perFrame := testing.AllocsPerRun(5, decodeAll) / float64(len(res.Packets))
		t.Logf("%v: %.1f allocations per decoded frame", c.profile, perFrame)
		if perFrame > 16 {
			t.Fatalf("%v: %.1f allocations per decoded frame, want at most 16", c.profile, perFrame)
		}

		runtime.GOMAXPROCS(2)
		decodeAll()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 5
		for range runs {
			decodeAll()
		}
		runtime.ReadMemStats(&after)
		perFrame = float64(after.Mallocs-before.Mallocs) / float64(runs*len(res.Packets))
		t.Logf("%v: %.1f allocations per decoded frame at GOMAXPROCS 2", c.profile, perFrame)
		if perFrame > 16 {
			t.Fatalf("%v: %.1f allocations per decoded frame at GOMAXPROCS 2, want at most 16", c.profile, perFrame)
		}
	}
}

// TestCodeModeReadsCompoundOnlyWithBothRefs holds the invariant the
// decoder relies on to skip a compound block's reference check: read
// through entropy.Reader from random bytes, for every profile and every
// set of valid reference slots, codeMode returns compound only when LAST
// and GOLDEN are both valid — and does return it then, where the profile
// has compound prediction, so the property is not met by never reading
// the flag.
func TestCodeModeReadsCompoundOnlyWithBothRefs(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	data := make([]byte, 2048)
	for _, p := range []Profile{H264Class, VP9Class, AV1Class} {
		fs := newFrameShared(p, 64, 64, 64, 64)
		for valid := 0; valid < 1<<numRefSlots; valid++ {
			var rv [numRefSlots]bool
			for i := range rv {
				rv[i] = valid>>i&1 == 1
			}
			fs.resetForFrame(30, false, [numRefSlots]*video.Frame{}, rv, nil, fs.frameModel(nil, 1, false), 0, 64)
			rng.Read(data)
			d := bits.NewDecoder(data)
			compound := 0
			for b := 0; b < 400; b++ {
				ch := fs.codeMode(entropy.Reader(d), blockChoice{}, b%4*16, b/4%4*16)
				if ch.compound {
					compound++
				}
			}
			both := rv[RefLast] && rv[RefGolden]
			if compound > 0 && !both {
				t.Fatalf("profile %v valid slots %v: %d compound blocks read", p, rv, compound)
			}
			if both && p.Compound() && compound == 0 {
				t.Fatalf("profile %v valid slots %v: no compound block in 400", p, rv)
			}
		}
	}
}
