package vcu

// Cycle-approximate model of one encoder core's macroblock pipeline
// (paper Fig. 4): motion estimation / partitioning / RDO, entropy coding
// (+ in-loop decode and temporal filter), and reconstruction (+ loop
// filter and frame buffer compression), decoupled by FIFOs with full
// backpressure — "though the stages of the pipeline are balanced for
// expected throughput (cycles per macroblock), the wide variety of blocks
// and modes can lead to significant variability. To address this, the
// pipeline stages are decoupled with FIFOs" (§3.2).
//
// The micro-model ties the chip model's macro rate constants to an
// architectural story: with the default stage budgets and FIFO depths, a
// core sustains 2160p60 (≈ 497.7 Mpix/s), and removing the FIFOs costs
// throughput through stalls.

// PipelineStage identifiers (Fig. 4 order).
type PipelineStage int

// Pipeline stages.
const (
	StageMotionRDO PipelineStage = iota
	StageEntropy
	StageRecon
	NumPipelineStages
)

// String names the stage.
func (s PipelineStage) String() string {
	switch s {
	case StageMotionRDO:
		return "motion/partition/RDO"
	case StageEntropy:
		return "entropy/decode/filter"
	default:
		return "recon/loopfilter/FBC"
	}
}

// pipelineClockHz is the core clock (the budget arithmetic assumes
// ~911 MHz: 2160p60 is ~121.5k superblocks/s, so ~7,500 cycles per
// 64×64 superblock sustains real time).
const pipelineClockHz = 911e6

// stageMeanCycles is the calibrated mean cycles per stage per
// superblock. The pipeline rate is set by the slowest stage's mean
// when FIFOs absorb the variance.
var stageMeanCycles = [NumPipelineStages]float64{7100, 6200, 5000}

// PipelineConfig parameterizes the core pipeline.
type PipelineConfig struct {
	// Variability is the half-width of the per-block cycle jitter as a
	// fraction of the mean; the entropy stage is the most variable
	// (bits per block swing widely).
	Variability [NumPipelineStages]float64
	// FIFODepth is the inter-stage queue capacity in blocks. Depth 1
	// means lock-step (no decoupling).
	FIFODepth int
	// Seed drives the deterministic jitter.
	Seed uint64
}

// DefaultPipelineConfig returns the calibrated configuration.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{
		Variability: [NumPipelineStages]float64{0.25, 0.70, 0.15},
		FIFODepth:   8,
		Seed:        1,
	}
}

// PipelineResult summarizes a pipeline run.
type PipelineResult struct {
	Blocks      int
	TotalCycles float64
	// StallCycles[s] is time stage s spent blocked on a full downstream
	// FIFO (backpressure) rather than waiting for input.
	StallCycles [NumPipelineStages]float64
	// BlocksPerSec and PixPerSec at pipelineClockHz (64×64 blocks).
	BlocksPerSec float64
	PixPerSec    float64
}

// SimulatePipeline runs blocks superblocks through the pipeline and
// reports sustained throughput and per-stage backpressure stalls.
func SimulatePipeline(cfg PipelineConfig, blocks int) PipelineResult {
	if cfg.FIFODepth < 1 {
		cfg.FIFODepth = 1
	}
	rng := cfg.Seed*2 + 1
	jitter := func(stage PipelineStage) float64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		u := float64(rng%1e6)/1e6*2 - 1 // [-1, 1)
		return stageMeanCycles[stage] * (1 + cfg.Variability[stage]*u)
	}

	S := int(NumPipelineStages)
	depth := cfg.FIFODepth
	// start[s], finish[s] ring buffers over block index.
	finish := make([][]float64, S)
	start := make([][]float64, S)
	for s := 0; s < S; s++ {
		finish[s] = make([]float64, blocks)
		start[s] = make([]float64, blocks)
	}
	var res PipelineResult
	res.Blocks = blocks
	for i := 0; i < blocks; i++ {
		for s := 0; s < S; s++ {
			ready := 0.0 // input available
			if s > 0 {
				ready = finish[s-1][i]
			}
			free := 0.0 // own previous block done
			if i > 0 {
				free = finish[s][i-1]
			}
			// Backpressure: stage s cannot finish into a full FIFO; it
			// may not start block i until the downstream stage has
			// started block i-depth (freeing a slot).
			bp := 0.0
			if s+1 < S && i >= depth {
				bp = start[s+1][i-depth]
			}
			st := maxf(ready, free, bp)
			if bp > ready && bp > free {
				res.StallCycles[s] += bp - maxf(ready, free, 0)
			}
			start[s][i] = st
			finish[s][i] = st + jitter(PipelineStage(s))
		}
	}
	res.TotalCycles = finish[S-1][blocks-1]
	perBlock := res.TotalCycles / float64(blocks)
	res.BlocksPerSec = pipelineClockHz / perBlock
	res.PixPerSec = res.BlocksPerSec * 64 * 64
	return res
}

func maxf(vs ...float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// --- reference store ---------------------------------------------------------

// RefStore models the encoder core's SRAM reference store (paper
// footnote 4: 768×192 pixels organized so "each pixel in a tile column
// [is] loaded exactly once during that column's processing"), with LRU
// eviction. Units are 64×64-pixel blocks: capacity 768*192/4096 = 36.
type RefStore struct {
	capacity int
	// LRU list: most recent at the back.
	order []int64
	index map[int64]int

	Hits, Misses int64
}

// NewRefStore returns a store with the hardware capacity.
func NewRefStore() *RefStore { return NewRefStoreCapacity(768 * 192 / (64 * 64)) }

// NewRefStoreCapacity returns a store holding n blocks.
func NewRefStoreCapacity(n int) *RefStore {
	return &RefStore{capacity: n, index: map[int64]int{}}
}

// Access touches reference block (bx, by); it returns true on hit.
func (r *RefStore) Access(bx, by int) bool {
	key := int64(by)<<32 | int64(uint32(bx))
	if _, ok := r.index[key]; ok {
		r.touch(key)
		r.Hits++
		return true
	}
	r.Misses++
	if len(r.order) >= r.capacity {
		victim := r.order[0]
		r.order = r.order[1:]
		delete(r.index, victim)
	}
	r.order = append(r.order, key)
	r.reindex()
	return false
}

func (r *RefStore) touch(key int64) {
	pos := r.index[key]
	r.order = append(append(append([]int64{}, r.order[:pos]...), r.order[pos+1:]...), key)
	r.reindex()
}

func (r *RefStore) reindex() {
	for i, k := range r.order {
		r.index[k] = i
	}
}

// HitRate returns the fraction of accesses served from SRAM.
func (r *RefStore) HitRate() float64 {
	total := r.Hits + r.Misses
	if total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(total)
}

// TileColumnWalk simulates the motion-search access pattern over one
// tile column of tileCols×rows superblocks with a ±search window of
// win blocks: the deterministic raster walk the hardware prefetches for.
func (r *RefStore) TileColumnWalk(tileCols, rows, win int) {
	for y := 0; y < rows; y++ {
		for x := 0; x < tileCols; x++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -win; dx <= win; dx++ {
					r.Access(x+dx, y+dy)
				}
			}
		}
	}
}

// RandomWalk simulates an unconstrained (software-style) motion access
// pattern across a w×h-block reference frame.
func (r *RefStore) RandomWalk(w, h, accesses int, seed uint64) {
	rng := seed*2 + 1
	for i := 0; i < accesses; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		bx := int(rng % uint64(w))
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		by := int(rng % uint64(h))
		r.Access(bx, by)
	}
}
