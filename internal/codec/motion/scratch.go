package motion

// Scratch owns the reusable per-call buffers of the motion kernels, so
// the hot path allocates nothing (TestSampleSharpAllocatesNothing holds
// the sharp interpolator to it, TestEncodeAllocsPerFrame in
// internal/codec the encoder around it). Ownership rules:
//
//   - One Scratch per single-threaded encode/decode context (the codec
//     keeps one on each per-tile frameShared). Scratch must never be
//     shared across goroutines.
//   - The zero value is ready to use; buffers grow on demand and are
//     retained across calls.
//   - The kernel-internal buffer (edge) is dead once the call returns.
//     Pred holds a sampled prediction block across a kernel call (for
//     example the second compound reference, or the sub-pel candidate
//     during Search) and is clobbered by the next call that needs it.
type Scratch struct {
	// pred is an n×n pixel buffer for a secondary prediction block.
	pred []uint8
	// edge holds the edge-extended source samples of a block that
	// leaves the frame: one row (Scratch.row), or the window of at most
	// (n+3)×(n+3) samples a kernel reads (Scratch.window).
	edge []uint8
}

// NewScratch returns an empty Scratch. Equivalent to new(Scratch); the
// constructor exists for call-site clarity.
func NewScratch() *Scratch { return &Scratch{} }

// setup grows the buffers to serve an n×n block. Named with a setup
// prefix: it is the one place in the package allowed to allocate.
func (sc *Scratch) setup(n int) {
	if cap(sc.pred) < n*n {
		sc.pred = make([]uint8, n*n)
	}
	sc.pred = sc.pred[:n*n]
	if cap(sc.edge) < (n+3)*(n+3) {
		sc.edge = make([]uint8, (n+3)*(n+3))
	}
	sc.edge = sc.edge[:(n+3)*(n+3)]
}
