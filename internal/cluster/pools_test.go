package cluster

import (
	"testing"
	"time"

	"openvcu/internal/codec"
	"openvcu/internal/vcu"
	"openvcu/internal/video"
)

func poolVideo(id int, live bool) *Graph {
	spec := VideoSpec{
		ID: id, Resolution: video.Res1080p, FPS: 30, Frames: 300, ChunkFrames: 150,
		Profile: codec.VP9Class, MOT: true,
	}
	if live {
		spec.Mode = vcu.EncodeTwoPassLagged
		spec.Live = true
	} else {
		spec.Mode = vcu.EncodeTwoPassOffline
	}
	return BuildGraph(spec, 10)
}

func TestPoolsIsolateLiveFromUpload(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.EnablePools = true
	cfg.LiveShare = 0.25            // 5 of 20 VCUs
	cfg.RebalancePeriod = time.Hour // no rebalancing in this test
	c := New(cfg)
	liveDone, uploadDone := 0, 0
	for i := 0; i < 4; i++ {
		g := poolVideo(i, true)
		g.OnDone = func(*Graph) { liveDone++ }
		c.Submit(g)
		g2 := poolVideo(100+i, false)
		g2.OnDone = func(*Graph) { uploadDone++ }
		c.Submit(g2)
	}
	c.Eng.RunUntil(20 * time.Minute)
	if liveDone != 4 || uploadDone != 4 {
		t.Fatalf("done live=%d upload=%d", liveDone, uploadDone)
	}
	// Placement respected pools: live steps only on VCUs 0-4.
	for i := 0; i < 4; i++ {
		// Graphs aren't retained; re-run with tracking.
		break
	}
	c2 := New(cfg)
	g := poolVideo(1, true)
	c2.Submit(g)
	c2.Eng.RunUntil(10 * time.Minute)
	for _, s := range g.Steps {
		for _, id := range s.RanOnVCU {
			if c2.byVCU[id].pool != stepPool(s) {
				t.Fatalf("live step ran on VCU %d in pool %v", id, c2.byVCU[id].pool)
			}
		}
	}
}

func TestPoolRebalanceFeedsStarvedPool(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.EnablePools = true
	cfg.LiveShare = 0.9 // upload pool starts with only 2 VCUs
	cfg.RebalancePeriod = 15 * time.Second
	c := New(cfg)
	done := 0
	const videos = 30
	for i := 0; i < videos; i++ {
		g := poolVideo(i, false) // all upload work; live pool sits idle
		g.OnDone = func(*Graph) { done++ }
		c.Submit(g)
	}
	c.Eng.RunUntil(time.Hour)
	if done != videos {
		t.Fatalf("completed %d/%d", done, videos)
	}
	if c.Stats.PoolRebalances == 0 {
		t.Fatal("idle live-pool workers never reallocated to the starved upload pool")
	}
	// Most VCUs should now sit in the upload pool.
	upload := 0
	for _, cw := range c.workers {
		if cw.pool == 0 { // sched.UseUpload
			upload++
		}
	}
	if upload < 5 {
		t.Fatalf("only %d/20 VCUs in the upload pool after rebalancing", upload)
	}
}

func TestPoolRebalanceDoesNotStealFromBusyPool(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.EnablePools = true
	cfg.LiveShare = 0.5
	cfg.RebalancePeriod = 10 * time.Second
	c := New(cfg)
	liveDone, uploadDone := 0, 0
	// Both pools have backlog: no pool should be drained.
	for i := 0; i < 20; i++ {
		g := poolVideo(i, true)
		g.OnDone = func(*Graph) { liveDone++ }
		c.Submit(g)
		g2 := poolVideo(100+i, false)
		g2.OnDone = func(*Graph) { uploadDone++ }
		c.Submit(g2)
	}
	c.Eng.RunUntil(2 * time.Hour)
	if liveDone != 20 || uploadDone != 20 {
		t.Fatalf("live=%d upload=%d", liveDone, uploadDone)
	}
	live := 0
	for _, cw := range c.workers {
		if cw.pool == 1 { // sched.UseLive
			live++
		}
	}
	if live == 0 || live == 20 {
		t.Fatalf("a busy pool was drained: live pool size %d", live)
	}
}
