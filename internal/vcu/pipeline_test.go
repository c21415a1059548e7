package vcu

import "testing"

func TestPipelineSustains2160p60(t *testing.T) {
	// The calibrated pipeline must hit the §3.3.1 per-core realtime rate.
	res := SimulatePipeline(DefaultPipelineConfig(), 20000)
	if res.PixPerSec < 490e6 {
		t.Fatalf("pipeline sustains %.0f Mpix/s, need ~497.7 (2160p60)", res.PixPerSec/1e6)
	}
	if res.PixPerSec > 600e6 {
		t.Fatalf("pipeline rate %.0f Mpix/s implausibly above the stage budget", res.PixPerSec/1e6)
	}
}

func TestPipelineBottleneckIsSlowestStage(t *testing.T) {
	cfg := DefaultPipelineConfig()
	cfg.Variability = [NumPipelineStages]float64{} // deterministic
	res := SimulatePipeline(cfg, 5000)
	// Without variance, throughput = clock / slowest stage mean.
	want := pipelineClockHz / stageMeanCycles[StageMotionRDO]
	if ratio := res.BlocksPerSec / want; ratio < 0.99 || ratio > 1.01 {
		t.Fatalf("deterministic pipeline rate %.0f blocks/s, want %.0f", res.BlocksPerSec, want)
	}
}

func TestFIFODecouplingAbsorbsVariability(t *testing.T) {
	// §3.2's design point: with variable stage times, deeper FIFOs mean
	// fewer backpressure stalls and more throughput than lock-step.
	lockstep := DefaultPipelineConfig()
	lockstep.FIFODepth = 1
	deep := DefaultPipelineConfig()
	deep.FIFODepth = 16
	rLock := SimulatePipeline(lockstep, 20000)
	rDeep := SimulatePipeline(deep, 20000)
	if rDeep.PixPerSec <= rLock.PixPerSec {
		t.Fatalf("FIFO depth 16 (%.0f Mpix/s) not faster than lock-step (%.0f)",
			rDeep.PixPerSec/1e6, rLock.PixPerSec/1e6)
	}
	var stallsLock, stallsDeep float64
	for s := 0; s < int(NumPipelineStages); s++ {
		stallsLock += rLock.StallCycles[s]
		stallsDeep += rDeep.StallCycles[s]
	}
	if stallsDeep >= stallsLock {
		t.Fatalf("deeper FIFOs did not reduce stalls: %.0f -> %.0f", stallsLock, stallsDeep)
	}
}

func TestPipelineDeterministic(t *testing.T) {
	a := SimulatePipeline(DefaultPipelineConfig(), 3000)
	b := SimulatePipeline(DefaultPipelineConfig(), 3000)
	if a.TotalCycles != b.TotalCycles {
		t.Fatal("pipeline simulation not deterministic")
	}
}

func TestRefStoreTileColumnWalk(t *testing.T) {
	// The hardware walk: within a tile column each reference block is
	// loaded once and then hits — the footnote-4 design goal.
	r := NewRefStore()
	r.TileColumnWalk(8, 30, 2)
	if hr := r.HitRate(); hr < 0.85 {
		t.Fatalf("tile-column walk hit rate %.2f, want > 0.85", hr)
	}
}

func TestRefStoreRandomAccessThrashes(t *testing.T) {
	tile := NewRefStore()
	tile.TileColumnWalk(8, 30, 2)
	random := NewRefStore()
	random.RandomWalk(60, 34, int(tile.Hits+tile.Misses), 5)
	if random.HitRate() >= tile.HitRate() {
		t.Fatalf("random walk hit rate %.2f not below tile walk %.2f",
			random.HitRate(), tile.HitRate())
	}
}

func TestRefStoreLRU(t *testing.T) {
	r := NewRefStoreCapacity(2)
	r.Access(0, 0) // miss
	r.Access(1, 0) // miss
	r.Access(0, 0) // hit, now MRU
	r.Access(2, 0) // miss, evicts (1,0)
	if !r.Access(0, 0) {
		t.Fatal("(0,0) should have survived as MRU")
	}
	if r.Access(1, 0) {
		t.Fatal("(1,0) should have been evicted")
	}
}

func BenchmarkPipelineSimulation(b *testing.B) {
	cfg := DefaultPipelineConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SimulatePipeline(cfg, 2025) // one 2160p frame of superblocks
	}
}
