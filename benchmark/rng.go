package main

// rng is splitmix64: every input the benchmark generates comes from one
// of these, seeded from -seed.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// float is uniform in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// jitter is uniform in [1-f, 1+f).
func (r *rng) jitter(f float64) float64 { return 1 - f + 2*f*r.float() }
