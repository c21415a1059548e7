package workload

import "testing"

func TestPowerLawHead(t *testing.T) {
	c := Generate(10000, 1)
	// §2.2: "the very popular videos that make up the majority of watch
	// time represent a small fraction of transcoding and storage costs."
	popularShare := c.WatchShare(BucketPopular)
	if popularShare < 0.25 {
		t.Fatalf("top 1%% of videos hold %.0f%% of watch time, want a heavy head", popularShare*100)
	}
	tailShare := c.WatchShare(BucketTail)
	if tailShare > 0.5 {
		t.Fatalf("tail holds %.0f%% of watch time, should be minor per watch", tailShare*100)
	}
	// But the tail is the majority of videos.
	tailCount := 0
	for _, v := range c.Videos {
		if c.BucketOf(v) == BucketTail {
			tailCount++
		}
	}
	if tailCount < len(c.Videos)*8/10 {
		t.Fatalf("tail has %d/%d videos, should be the vast majority", tailCount, len(c.Videos))
	}
}

func TestWatchMonotoneWithRank(t *testing.T) {
	c := Generate(2000, 2)
	for i, v := range c.Videos {
		if v.Rank != i+1 {
			t.Fatalf("rank %d at position %d", v.Rank, i)
		}
		if i > 0 && v.WatchSeconds > c.Videos[i-1].WatchSeconds {
			t.Fatalf("watch rises at rank %d: %.1f after %.1f", v.Rank, v.WatchSeconds, c.Videos[i-1].WatchSeconds)
		}
	}
}

func TestBucketBoundaries(t *testing.T) {
	c := Generate(1000, 3)
	if c.BucketOf(c.Videos[0]) != BucketPopular {
		t.Error("rank 1 not popular")
	}
	if c.BucketOf(c.Videos[c.PopularCut]) != BucketModerate {
		t.Error("first post-cut video not moderate")
	}
	if c.BucketOf(c.Videos[len(c.Videos)-1]) != BucketTail {
		t.Error("last video not tail")
	}
}

func TestVCUEraCoversTheTail(t *testing.T) {
	c := Generate(5000, 4)
	m := DefaultEgressModel()
	cpu := Apply(c, PolicyCPUEra, m)
	vcuR := Apply(c, PolicyVCUEra, m)
	// CPU era: only popular videos have VP9.
	if cpu.VP9Videos != c.PopularCut {
		t.Fatalf("CPU era VP9 videos %d, want %d (popular only)", cpu.VP9Videos, c.PopularCut)
	}
	if vcuR.VP9Videos != len(c.Videos) {
		t.Fatalf("VCU era VP9 videos %d, want all %d", vcuR.VP9Videos, len(c.Videos))
	}
	// VP9 watch coverage jumps to the capable-device ceiling.
	if vcuR.VP9WatchShare < m.VP9CapableShare-1e-9 {
		t.Fatalf("VCU era VP9 watch share %.2f, want %.2f", vcuR.VP9WatchShare, m.VP9CapableShare)
	}
	if cpu.VP9WatchShare >= vcuR.VP9WatchShare {
		t.Fatal("CPU era should cover less watch time in VP9")
	}
	// And egress drops.
	saving := EgressSaving(cpu, vcuR)
	if saving <= 0.02 || saving >= m.VP9Saving {
		t.Fatalf("egress saving %.1f%%, want in (2%%, %.0f%%)", saving*100, m.VP9Saving*100)
	}
}

func TestComputeCostStructure(t *testing.T) {
	c := Generate(5000, 5)
	m := DefaultEgressModel()
	cpu := Apply(c, PolicyCPUEra, m)
	vcuR := Apply(c, PolicyVCUEra, m)
	// The VCU era does far more transcode work (VP9 for everything) —
	// which is exactly why it was "computationally infeasible at scale
	// in software" (§4.1) and needed the accelerator.
	if vcuR.TranscodeComputeUnits <= cpu.TranscodeComputeUnits {
		t.Fatal("VCU-era policy should require much more transcode compute")
	}
	ratio := vcuR.TranscodeComputeUnits / cpu.TranscodeComputeUnits
	if ratio < 3 {
		t.Fatalf("compute ratio %.1f, expected several-fold", ratio)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := Generate(100, 9)
	b := Generate(100, 9)
	for i := range a.Videos {
		if a.Videos[i] != b.Videos[i] {
			t.Fatal("corpus generation not deterministic")
		}
	}
}
