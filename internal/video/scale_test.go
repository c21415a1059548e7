package video

import (
	"bytes"
	"math/rand"
	"testing"
)

// boxScaleRef is boxScale as it was before its row walks stepped the
// column spans: two divisions per coordinate and one per pixel. It is the
// reference TestBoxScaleMatchesReference holds boxScale to.
func boxScaleRef(src []uint8, sw, sh int, dst []uint8, dw, dh int) {
	for dy := 0; dy < dh; dy++ {
		y0 := dy * sh / dh
		y1 := (dy + 1) * sh / dh
		if y1 <= y0 {
			y1 = y0 + 1
		}
		for dx := 0; dx < dw; dx++ {
			x0 := dx * sw / dw
			x1 := (dx + 1) * sw / dw
			if x1 <= x0 {
				x1 = x0 + 1
			}
			var sum, n int32
			for sy := y0; sy < y1; sy++ {
				row := sy * sw
				for sx := x0; sx < x1; sx++ {
					sum += int32(src[row+sx])
					n++
				}
			}
			dst[dy*dw+dx] = uint8((sum + n/2) / n)
		}
	}
}

// TestBoxScaleMatchesReference: every downscale of the ladder between
// 1080p and 144p, luma and chroma, plus random shapes (odd sizes, ratios
// just under 1, a single row or column, boxes of many pixels), on random
// planes and on planes of 255 and of 0, where the box sums and the
// rounding are at their extremes.
func TestBoxScaleMatchesReference(t *testing.T) {
	type shape struct{ sw, sh, dw, dh int }
	var shapes []shape
	for _, s := range Ladder[:6] {
		for _, d := range Ladder[:6] {
			if d.Width <= s.Width && d.Height <= s.Height {
				scw, sch := ChromaDims(s.Width, s.Height)
				dcw, dch := ChromaDims(d.Width, d.Height)
				shapes = append(shapes, shape{s.Width, s.Height, d.Width, d.Height}, shape{scw, sch, dcw, dch})
			}
		}
	}
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 200; i++ {
		sw, sh := 1+rng.Intn(300), 1+rng.Intn(200)
		shapes = append(shapes, shape{sw, sh, 1 + rng.Intn(sw), 1 + rng.Intn(sh)})
	}
	shapes = append(shapes, shape{1000, 3, 1, 1}, shape{7, 900, 7, 1}, shape{513, 511, 512, 510})
	for i, s := range shapes {
		src := make([]uint8, s.sw*s.sh)
		switch i % 3 {
		case 0:
			rng.Read(src)
		case 1:
			for j := range src {
				src[j] = 255
			}
		}
		got, want := make([]uint8, s.dw*s.dh), make([]uint8, s.dw*s.dh)
		boxScale(src, s.sw, s.sh, got, s.dw, s.dh)
		boxScaleRef(src, s.sw, s.sh, want, s.dw, s.dh)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d×%d → %d×%d: boxScale differs from the reference", s.sw, s.sh, s.dw, s.dh)
		}
	}
	// One box of 4095² pixels, just under the reciprocal's limit, near
	// the largest sum it can have, against the average taken in uint64
	// (the reference's int32 sum overflows past 2^31/255 pixels).
	const side = 4095
	src := bytes.Repeat([]byte{255}, side*side)
	var sum uint64
	for i := 0; i < side; i++ {
		src[i*side] = uint8(i)
	}
	for _, v := range src {
		sum += uint64(v)
	}
	got := make([]uint8, 1)
	boxScale(src, side, side, got, 1, 1)
	if want := (sum + side*side/2) / (side * side); uint64(got[0]) != want {
		t.Fatalf("a %d² box averages to %d, want %d", side, got[0], want)
	}
}

func TestBoxScaleAllocatesNothing(t *testing.T) {
	src, dst := make([]uint8, 1280*720), make([]uint8, 640*360)
	if a := testing.AllocsPerRun(5, func() { boxScale(src, 1280, 720, dst, 640, 360) }); a != 0 {
		t.Fatalf("boxScale allocates %v times per call, want 0", a)
	}
}

// BenchmarkBoxScale times the 1080p → 360p luma downscale of an upload's
// ladder, against the reference loop.
func BenchmarkBoxScale(b *testing.B) {
	src, dst := make([]uint8, 1920*1080), make([]uint8, 640*360)
	rand.New(rand.NewSource(1)).Read(src)
	for _, k := range []struct {
		name string
		fn   func([]uint8, int, int, []uint8, int, int)
	}{{"walk", boxScale}, {"reference", boxScaleRef}} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.fn(src, 1920, 1080, dst, 640, 360)
			}
		})
	}
}
