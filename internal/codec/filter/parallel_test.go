package filter

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"openvcu/internal/video"
)

// stripeWorkers are the worker counts the *Parallel filters are held to
// their references at: 0 runs every stripe on its own goroutine, the
// adversarial schedule (if stripes overlapped, -race would catch it and
// the byte-compare would flake); 1 is the inline path an encoder with
// Workers 1, or a decoder on one core, takes.
var stripeWorkers = []int{0, 1}

// deblockRef is the deblock reference: DeblockPlaneScalar on each plane,
// chroma on half the luma grid (at least 4).
func deblockRef(f *video.Frame, blockSize, strength int) {
	DeblockPlaneScalar(f.Y, f.Width, f.Height, blockSize, strength)
	cw, ch := video.ChromaDims(f.Width, f.Height)
	cb := max(blockSize/2, 4)
	DeblockPlaneScalar(f.U, cw, ch, cb, strength)
	DeblockPlaneScalar(f.V, cw, ch, cb, strength)
}

// restoreRef is the plain restoration loop RestoreParallel is held to:
// each plane box-smoothed whole, then blended with it.
func restoreRef(f *video.Frame, weightIdx int) {
	w := RestorationWeights[weightIdx&3]
	cw, ch := video.ChromaDims(f.Width, f.Height)
	for _, p := range []planeJob{{f.Y, f.Width, f.Height, 0}, {f.U, cw, ch, 0}, {f.V, cw, ch, 0}} {
		smooth := boxSmoothRef(p.pix, p.w, p.h)
		for i := range p.pix {
			p.pix[i] = uint8((int32(p.pix[i])*(8-w) + int32(smooth[i])*w + 4) >> 3)
		}
	}
}

// boxSmoothRef returns the 3x3 box filter of a whole plane (edge-clamped).
func boxSmoothRef(pix []uint8, w, h int) []uint8 {
	out := make([]uint8, len(pix))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var sum int32
			for sy := y - 1; sy <= y+1; sy++ {
				for sx := x - 1; sx <= x+1; sx++ {
					sum += int32(pix[min(max(sy, 0), h-1)*w+min(max(sx, 0), w-1)])
				}
			}
			out[y*w+x] = uint8((sum + 4) / 9)
		}
	}
	return out
}

// bestRestorationWeightRef is the plain weight search
// BestRestorationWeightParallel is held to: the weight index minimizing
// luma SSE against the source, scanned over the whole plane per weight.
func bestRestorationWeightRef(recon, src *video.Frame) int {
	smooth := boxSmoothRef(recon.Y, recon.Width, recon.Height)
	best, bestSSE := 0, int64(-1)
	for idx, w := range RestorationWeights {
		var sse int64
		for i := range recon.Y {
			v := (int32(recon.Y[i])*(8-w) + int32(smooth[i])*w + 4) >> 3
			d := int64(v) - int64(src.Y[i])
			sse += d * d
		}
		if bestSSE < 0 || sse < bestSSE {
			best, bestSSE = idx, sse
		}
	}
	return best
}

func samePlanes(a, b *video.Frame) bool {
	return bytes.Equal(a.Y, b.Y) && bytes.Equal(a.U, b.U) && bytes.Equal(a.V, b.V)
}

func randFrame(rng *rand.Rand, w, h int) *video.Frame {
	f := video.NewFrame(w, h)
	for i := range f.Y {
		f.Y[i] = uint8(rng.Intn(256))
	}
	for i := range f.U {
		f.U[i] = uint8(rng.Intn(256))
		f.V[i] = uint8(rng.Intn(256))
	}
	return f
}

// blockyFrame makes a frame with visible block-grid steps so the
// deblock filter actually fires on many edges.
func blockyFrame(rng *rand.Rand, w, h, bs int) *video.Frame {
	f := video.NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			base := uint8(((x/bs)*7 + (y/bs)*11) % 200)
			f.Y[y*w+x] = base + uint8(rng.Intn(3))
		}
	}
	cw, ch := video.ChromaDims(w, h)
	for y := 0; y < ch; y++ {
		for x := 0; x < cw; x++ {
			f.U[y*cw+x] = uint8(((x / 4) * 13) % 250)
			f.V[y*cw+x] = uint8(((y / 4) * 17) % 250)
		}
	}
	return f
}

func TestSwarMaskPrimitivesExhaustive(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			va := uint64(a) * fswarOne
			vb := uint64(b) * fswarOne
			wantAbs := a - b
			if wantAbs < 0 {
				wantAbs = -wantAbs
			}
			if got := fAbsDiffU64(va, vb); byte(got) != byte(wantAbs) || got != uint64(byte(wantAbs))*fswarOne {
				t.Fatalf("fAbsDiffU64(%d,%d) = %#x, want bytes %d", a, b, got, wantAbs)
			}
			wantGE := uint64(0)
			if a >= b {
				wantGE = fswarMSB
			}
			if got := geMaskU64(va, vb); got != wantGE {
				t.Fatalf("geMaskU64(%d,%d) = %#x, want %#x", a, b, got, wantGE)
			}
		}
	}
}

// TestFilterEdgeReduction holds the rule the lanes run to filterEdge
// over every (p0, q0) pair, flat sides and the clamped threshold 255:
// with a = |q0−p0| ≥ 3 the lower side rises by (a+3)/6 and the higher
// falls by (a+2)/6, and with a ≤ 2 nothing moves. It also holds the
// 16-bit lane divide to x/6 over every input it can be given (a+2 and
// a+3 for a ≤ 255), in each lane, and the scalar multiply-shift up to
// 514.
func TestFilterEdgeReduction(t *testing.T) {
	for p := int32(0); p < 256; p++ {
		for q := int32(0); q < 256; q++ {
			p1, p0, q0, q1 := p, p, q, q
			filterEdge(&p1, &p0, &q0, &q1, 255)
			a := max(q-p, p-q)
			wp, wq := p, q
			if a >= 3 {
				up, down := (a+3)/6, (a+2)/6
				if p < q {
					wp, wq = p+up, q-down
				} else {
					wp, wq = p-down, q+up
				}
			}
			if p0 != wp || q0 != wq {
				t.Fatalf("filterEdge(%d, %d) = (%d, %d), the rule gives (%d, %d)", p, q, p0, q0, wp, wq)
			}
		}
	}
	for x := uint64(0); x <= 258; x++ {
		for lane := uint(0); lane < 4; lane++ {
			// the other lanes hold the largest input, to show up a carry
			in := 258*lane16One&^(0xffff<<(16*lane)) | x<<(16*lane)
			want := 43*lane16One&^(0xffff<<(16*lane)) | x/6<<(16*lane)
			if got := div6Lanes(in); got != want {
				t.Fatalf("div6Lanes(%d in lane %d) = %#x, want %#x", x, lane, got, want)
			}
		}
	}
	for x := 0; x <= 514; x++ {
		if x*div6Mul>>div6Shift != x/6 {
			t.Fatalf("%d·%d >> %d != %d/6", x, div6Mul, div6Shift, x)
		}
	}
}

// TestFilterLanesMatchFilterEdge runs every (p0, q0) pair through the
// lane filter, eight q0 values to a word, beside p1/q1 that are flat, a
// step of t or a step of t+1 away, at thresholds at both ends of the
// syntax's range and at the clamp, against filterEdge per lane.
func TestFilterLanesMatchFilterEdge(t *testing.T) {
	for _, thresh := range []int32{2, 3, 8, 33, 255, 400} {
		tv := laneThreshold(thresh)
		for _, side := range []int32{0, min(thresh, 255), thresh + 1} {
			for p := int32(0); p < 256; p++ {
				for q := int32(0); q < 256; q += 8 {
					var p1, p0, q0, q1 [8]uint8
					for i := range 8 {
						p0[i], q0[i] = uint8(p), uint8(q+int32(i))
						p1[i] = uint8(min(max(p-side*int32(1-2*(i&1)), 0), 255))
						q1[i] = uint8(min(max(q+int32(i)+side*int32(1-2*(i>>1&1)), 0), 255))
					}
					gp, gq, _ := filterLanes(word(p1), word(p0), word(q0), word(q1), tv)
					for i := range 8 {
						wp1, wp0, wq0, wq1 := int32(p1[i]), int32(p0[i]), int32(q0[i]), int32(q1[i])
						filterEdge(&wp1, &wp0, &wq0, &wq1, thresh)
						if uint8(gp>>(8*i)) != uint8(wp0) || uint8(gq>>(8*i)) != uint8(wq0) {
							t.Fatalf("t=%d lane %d (%d %d | %d %d): lanes give (%d, %d), filterEdge (%d, %d)",
								thresh, i, p1[i], p0[i], q0[i], q1[i], uint8(gp>>(8*i)), uint8(gq>>(8*i)), wp0, wq0)
						}
					}
				}
			}
		}
	}
}

func word(b [8]uint8) uint64 { return binary.LittleEndian.Uint64(b[:]) }

// stepFrame makes a frame whose blocks alternate between two levels
// along one direction, so every edge across that direction is a step;
// the step size cycles through steps with the position along the edge,
// with a period of 9 so each lane position meets each size.
func stepFrame(w, h, bs int, vertical bool, steps []int) *video.Frame {
	f := video.NewFrame(w, h)
	cw, ch := video.ChromaDims(w, h)
	for _, p := range []planeJob{{f.Y, w, h, bs}, {f.U, cw, ch, max(bs/2, 4)}, {f.V, cw, ch, max(bs/2, 4)}} {
		for y := 0; y < p.h; y++ {
			for x := 0; x < p.w; x++ {
				across, along := x, y
				if !vertical {
					across, along = y, x
				}
				v := 100
				if across/p.bs%2 == 1 {
					v += steps[along%9%len(steps)]
				}
				p.pix[y*p.w+x] = uint8(v)
			}
		}
	}
	return f
}

// checkerFrame is the 0/255 checkerboard of cells of the given size.
func checkerFrame(w, h, cell int) *video.Frame {
	f := video.NewFrame(w, h)
	for _, p := range [][]uint8{f.Y, f.U, f.V} {
		pw := w
		if len(p) != len(f.Y) {
			pw, _ = video.ChromaDims(w, h)
		}
		for i := range p {
			if (i%pw/cell+i/pw/cell)%2 == 1 {
				p[i] = 255
			}
		}
	}
	return f
}

// TestDeblockLanesMatchScalar holds DeblockParallel to DeblockPlaneScalar
// on frames built to sit on the filter's decision edges: steps of 2, 3,
// t and t+1 (t the threshold) across vertical and horizontal block
// edges at every lane position, and 0/255 checkerboards, at every
// threshold the syntax produces (strength 0..31) and past the clamp;
// widths off the 8-byte grid, heights across luma and chroma stripe
// edges, block sizes 8 and 16.
func TestDeblockLanesMatchScalar(t *testing.T) {
	strengths := []int{300}
	for s := 0; s <= 31; s++ {
		strengths = append(strengths, s)
	}
	for _, dims := range [][2]int{{65, 70}, {67, 135}} { // 65: an edge at the last column
		w, h := dims[0], dims[1]
		for _, bs := range []int{8, 16} {
			for _, strength := range strengths {
				thresh := 2 + strength
				frames := map[string]*video.Frame{
					"checker1":  checkerFrame(w, h, 1),
					"checkerbs": checkerFrame(w, h, bs),
				}
				for _, vertical := range []bool{false, true} {
					frames[fmt.Sprintf("steps vertical=%v", vertical)] = stepFrame(w, h, bs, vertical, []int{2, 3, thresh, thresh + 1})
				}
				for name, src := range frames {
					want := src.Clone()
					deblockRef(want, bs, strength)
					for _, workers := range stripeWorkers {
						got := src.Clone()
						DeblockParallel(got, bs, strength, workers)
						if !samePlanes(got, want) {
							t.Fatalf("%dx%d bs=%d strength=%d %s workers=%d: lanes diverged from scalar", w, h, bs, strength, name, workers)
						}
					}
				}
			}
		}
	}
}

// FuzzDeblockMatchesScalar holds DeblockParallel to DeblockPlaneScalar on
// frames read from raw bytes: two bytes of size, one of block size and
// strength, then pixels, repeated to fill the frame. Its seeds run with
// every `go test`; `make fuzz` fuzzes it.
func FuzzDeblockMatchesScalar(f *testing.F) {
	f.Add([]byte{61, 70, 0x16, 100, 103, 100, 130, 0, 255})
	f.Add([]byte{8, 8, 0x08, 0, 255})
	f.Add([]byte{17, 33, 0x1f, 10, 12, 9, 40, 41, 40, 47})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 4 {
			return
		}
		w, h := 8+int(raw[0])%90, 8+int(raw[1])%140
		bs := []int{4, 8, 16}[int(raw[2]>>4)%3]
		strength := []int{int(raw[2] & 0xf), 31, 300}[int(raw[2]>>6)%3]
		src := video.NewFrame(w, h)
		pix := raw[3:]
		for i, p := range [][]uint8{src.Y, src.U, src.V} {
			for j := range p {
				p[j] = pix[(j+i)%len(pix)]
			}
		}
		want := src.Clone()
		deblockRef(want, bs, strength)
		got := src.Clone()
		DeblockParallel(got, bs, strength, 1)
		if !samePlanes(got, want) {
			t.Fatalf("%dx%d bs=%d strength=%d: lanes diverged from scalar", w, h, bs, strength)
		}
	})
}

// TestDeblockPlaneMatchesScalar is the SWAR/striped differential gate:
// random and blocky frames, widths off the 8-byte grid, heights across
// stripe boundaries of luma and chroma, strengths including one past the
// packed-threshold clamp; every plane against DeblockPlaneScalar.
func TestDeblockPlaneMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		w := 16 + rng.Intn(90) // frequently not a multiple of 8
		h := 16 + rng.Intn(180)
		bs := []int{4, 8, 16}[rng.Intn(3)]
		strength := []int{1, 3, 8, 20, 300}[rng.Intn(5)]
		src := randFrame(rng, w, h)
		if trial%2 == 1 {
			src = blockyFrame(rng, w, h, bs)
		}
		want := src.Clone()
		deblockRef(want, bs, strength)
		for _, workers := range stripeWorkers {
			got := src.Clone()
			DeblockParallel(got, bs, strength, workers)
			if !samePlanes(got, want) {
				t.Fatalf("trial %d (w=%d h=%d bs=%d s=%d) workers=%d: SWAR deblock diverged from scalar",
					trial, w, h, bs, strength, workers)
			}
		}
	}
}

func TestDeblockParallelMatchesSequential(t *testing.T) {
	for _, workers := range stripeWorkers {
		rng := rand.New(rand.NewSource(12))
		for _, dims := range [][2]int{{64, 64}, {176, 144}, {200, 130}} {
			seq := blockyFrame(rng, dims[0], dims[1], 8)
			par := seq.Clone()
			deblockRef(seq, 8, 6)
			DeblockParallel(par, 8, 6, workers)
			if !samePlanes(seq, par) {
				t.Fatalf("workers=%d %dx%d: parallel deblock diverged from sequential", workers, dims[0], dims[1])
			}
		}
	}
}

func TestRestoreParallelMatchesSequential(t *testing.T) {
	for _, workers := range stripeWorkers {
		rng := rand.New(rand.NewSource(13))
		for widx := 1; widx < 4; widx++ {
			seq := randFrame(rng, 120, 90)
			par := seq.Clone()
			restoreRef(seq, widx)
			RestoreParallel(par, widx, workers)
			if !samePlanes(seq, par) {
				t.Fatalf("workers=%d weight %d: parallel restore diverged from sequential", workers, widx)
			}
		}
	}
}

func TestBestRestorationWeightParallelMatchesSequential(t *testing.T) {
	for _, workers := range stripeWorkers {
		rng := rand.New(rand.NewSource(14))
		for trial := 0; trial < 10; trial++ {
			recon := randFrame(rng, 130, 100)
			src := recon.Clone()
			// noisy recon vs smooth src biases the search off weight 0
			for i := range src.Y {
				src.Y[i] = uint8((int(src.Y[i]) + 128) / 2)
			}
			want := bestRestorationWeightRef(recon, src)
			got := BestRestorationWeightParallel(recon, src, workers)
			if got != want {
				t.Fatalf("workers=%d trial %d: parallel weight %d != sequential %d", workers, trial, got, want)
			}
		}
	}
}
