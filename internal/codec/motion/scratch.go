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
//   - Kernel-internal buffers (lanes, edge) are dead once the call returns.
//     Pred holds a sampled prediction block across a kernel call (for
//     example the second compound reference, or the sub-pel candidate
//     during Search) and is clobbered by the next call that needs it.
type Scratch struct {
	// pred is an n×n pixel buffer for a secondary prediction block.
	pred []uint8
	// lanes is the row-pass intermediate of the separable interpolators:
	// per source row, the even and odd lane sums of each 8-pixel chunk
	// (swar.go), n+3 rows of n/4 words for the 4-tap filter.
	lanes []uint64
	// edge holds one edge-extended source row of an interpolator, n+3
	// samples for the 4-tap filter.
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
	if cap(sc.lanes) < (n+3)*n/4 {
		sc.lanes = make([]uint64, (n+3)*n/4)
	}
	sc.lanes = sc.lanes[:(n+3)*n/4]
	if cap(sc.edge) < n+3 {
		sc.edge = make([]uint8, n+3)
	}
	sc.edge = sc.edge[:n+3]
}
