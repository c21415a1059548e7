package video

// Procedural video sources. These replace the vbench clip corpus: each
// source is deterministic (seeded) and parameterized along the same three
// axes the suite was designed around — resolution, frame rate, and entropy
// (here decomposed into spatial detail, motion magnitude, and temporal
// noise). Motion is true translation of band-limited textures, so a real
// motion-estimating encoder behaves on this content the way it does on
// natural video: low-motion sources compress far better than noisy,
// high-motion ones.

// SourceConfig describes a procedural clip.
type SourceConfig struct {
	Name          string
	Width, Height int
	FPS           int
	Frames        int
	Seed          uint64

	// Detail is the spatial texture frequency in [0,1]: 0 is nearly flat,
	// 1 is per-4-pixel variation.
	Detail float64
	// Motion is the global pan speed in luma pixels per frame.
	Motion float64
	// ObjectMotion is the speed of the moving foreground objects.
	ObjectMotion float64
	// Objects is the number of moving foreground discs.
	Objects int
	// Noise is the temporal noise amplitude in luma levels (0 = clean).
	Noise int
	// SceneCut, if nonzero, switches to fresh content every SceneCut frames.
	SceneCut int
}

// Source generates frames of a procedural clip.
type Source struct {
	cfg SourceConfig
	// objects
	objX, objY, objVX, objVY []float64
	objR                     []int
	objSeed                  []uint64
}

// NewSource builds a Source for the config. The same config always yields
// bit-identical frames.
func NewSource(cfg SourceConfig) *Source {
	if cfg.FPS == 0 {
		cfg.FPS = 30
	}
	s := &Source{cfg: cfg}
	rng := splitMix64(cfg.Seed + 1)
	for i := 0; i < cfg.Objects; i++ {
		s.objX = append(s.objX, float64(rng.next()%uint64(maxInt(cfg.Width, 1))))
		s.objY = append(s.objY, float64(rng.next()%uint64(maxInt(cfg.Height, 1))))
		ang := float64(rng.next()%360) / 360.0
		vx, vy := cosApprox(ang), sinApprox(ang)
		s.objVX = append(s.objVX, vx*cfg.ObjectMotion)
		s.objVY = append(s.objVY, vy*cfg.ObjectMotion)
		s.objR = append(s.objR, 8+int(rng.next()%uint64(maxInt(cfg.Height/6, 9))))
		s.objSeed = append(s.objSeed, rng.next())
	}
	return s
}

// Frame renders frame t (0-based).
func (s *Source) Frame(t int) *Frame {
	cfg := s.cfg
	f := NewFrame(cfg.Width, cfg.Height)
	scene := uint64(0)
	if cfg.SceneCut > 0 {
		scene = uint64(t / cfg.SceneCut)
	}
	baseSeed := cfg.Seed ^ scene*0x9e3779b97f4a7c15

	// Texture scale: map Detail in [0,1] to a lattice period 64..4 px.
	period := 64 - int(cfg.Detail*60)
	if period < 4 {
		period = 4
	}
	// Global pan offset for this frame.
	panX := int32(cfg.Motion * float64(t) * 256) // 1/256-pel
	panY := int32(cfg.Motion * float64(t) * 128)

	// Luma background.
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			wx := int32(x)<<8 + panX
			wy := int32(y)<<8 + panY
			f.Y[y*cfg.Width+x] = valueNoise(baseSeed, wx, wy, period)
		}
	}
	// Foreground objects (textured discs on their own trajectories).
	for i := range s.objX {
		cx := s.objX[i] + s.objVX[i]*float64(t)
		cy := s.objY[i] + s.objVY[i]*float64(t)
		r := s.objR[i]
		// wrap around the frame
		cxi := wrap(int(cx), cfg.Width)
		cyi := wrap(int(cy), cfg.Height)
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				if dx*dx+dy*dy > r*r {
					continue
				}
				px := wrap(cxi+dx, cfg.Width)
				py := wrap(cyi+dy, cfg.Height)
				tex := valueNoise(s.objSeed[i]^baseSeed, int32(dx)<<8, int32(dy)<<8, maxInt(period/2, 4))
				f.Y[py*cfg.Width+px] = tex
			}
		}
	}
	// Temporal noise.
	if cfg.Noise > 0 {
		h := splitMix64(baseSeed ^ uint64(t)*0x2545f4914f6cdd1d)
		for i := range f.Y {
			n := int32(h.next()%uint64(2*cfg.Noise+1)) - int32(cfg.Noise)
			f.Y[i] = ClampU8(int32(f.Y[i]) + n)
		}
	}
	// Chroma: low-frequency color field, panned with the scene.
	cw, chh := ChromaDims(cfg.Width, cfg.Height)
	cPeriod := maxInt(period*2, 16)
	for y := 0; y < chh; y++ {
		for x := 0; x < cw; x++ {
			wx := int32(x)<<9 + panX
			wy := int32(y)<<9 + panY
			u := valueNoise(baseSeed^0xaaaa, wx, wy, cPeriod)
			v := valueNoise(baseSeed^0x5555, wx, wy, cPeriod)
			// keep chroma near neutral to mimic natural video statistics
			f.U[y*cw+x] = uint8(96 + int(u)/4)
			f.V[y*cw+x] = uint8(96 + int(v)/4)
		}
	}
	return f
}

// Frames renders frames [0, n) of the clip.
func (s *Source) Frames(n int) []*Frame {
	out := make([]*Frame, n)
	for i := 0; i < n; i++ {
		out[i] = s.Frame(i)
	}
	return out
}

// valueNoise returns smooth lattice noise at sub-pel coordinates (1/256-pel
// fixed point), with lattice period in pixels.
func valueNoise(seed uint64, fx, fy int32, period int) uint8 {
	p := int32(period) << 8
	// lattice cell and intra-cell position
	lx := floorDiv(fx, p)
	ly := floorDiv(fy, p)
	tx := fx - lx*p // [0, p)
	ty := fy - ly*p
	// smoothstep weights in Q8
	wx := smooth8(uint32(tx) * 256 / uint32(p))
	wy := smooth8(uint32(ty) * 256 / uint32(p))
	v00 := latticeHash(seed, lx, ly)
	v01 := latticeHash(seed, lx+1, ly)
	v10 := latticeHash(seed, lx, ly+1)
	v11 := latticeHash(seed, lx+1, ly+1)
	top := (v00*(256-wx) + v01*wx) >> 8
	bot := (v10*(256-wx) + v11*wx) >> 8
	return uint8((top*(256-wy) + bot*wy) >> 8)
}

func floorDiv(a, b int32) int32 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// smooth8 applies the smoothstep polynomial 3t²-2t³ in Q8.
func smooth8(t uint32) uint32 {
	if t > 255 {
		t = 255
	}
	return (t * t * (3*256 - 2*t)) >> 16
}

func latticeHash(seed uint64, x, y int32) uint32 {
	h := seed ^ uint64(uint32(x))*0x9e3779b97f4a7c15 ^ uint64(uint32(y))*0xc2b2ae3d27d4eb4f
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return uint32(h & 0xff)
}

func wrap(v, n int) int {
	v %= n
	if v < 0 {
		v += n
	}
	return v
}

// splitMix64 is a tiny deterministic PRNG (no math/rand dependency so the
// stream is stable across Go releases).
type splitMix64 uint64

func (s *splitMix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// cosApprox/sinApprox give a coarse direction vector for t in [0,1) turns.
// Precision is irrelevant — they only diversify object trajectories.
func cosApprox(t float64) float64 { return 1 - 2*quadrantFold(t) }
func sinApprox(t float64) float64 { return 1 - 2*quadrantFold(t+0.75) }

func quadrantFold(t float64) float64 {
	t -= float64(int(t))
	if t < 0 {
		t++
	}
	if t > 0.5 {
		t = 1 - t
	}
	return 2 * t
}
