package cluster

import (
	"testing"
	"time"

	"openvcu/internal/codec"
	"openvcu/internal/sched"
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

// starvedPoolVideos is the upload backlog of starvedPoolScenario.
const starvedPoolVideos = 30

// starvedPoolScenario starts the upload pool with 2 of 20 VCUs and
// gives it all the work, so the rebalancer has to feed it from the idle
// live pool. Returns the cluster and the completed-video count.
func starvedPoolScenario(seed uint64) (*Cluster, int) {
	cfg := DefaultConfig(1)
	cfg.EnablePools = true
	cfg.LiveShare = 0.9
	cfg.RebalancePeriod = 15 * time.Second
	cfg.Seed = seed
	c := newScenario(cfg)
	done := 0
	for i := 0; i < starvedPoolVideos; i++ {
		g := poolVideo(i, false)
		g.OnDone = func(*Graph) { done++ }
		c.Submit(g)
	}
	c.Eng.RunUntil(time.Hour)
	return c, done
}

func TestPoolRebalanceFeedsStarvedPool(t *testing.T) {
	const videos = starvedPoolVideos
	c, done := starvedPoolScenario(1)
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

// TestPoolRebalanceSkipsQuarantinedDonors: an idle worker the placement
// predicate refuses — a convicted device, or one on a disabled host —
// is no donor. Moving it would spend one of the starved pool's moves on
// a worker that cannot serve.
func TestPoolRebalanceSkipsQuarantinedDonors(t *testing.T) {
	cases := []struct {
		name       string
		quarantine func(c *Cluster)
	}{
		{"convicted", func(c *Cluster) { c.workers[0].standing = convicted }},
		{"host disabled", func(c *Cluster) { c.Hosts[0].Disable() }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(2)
		cfg.EnablePools = true
		cfg.LiveShare = 0               // every worker starts in the upload pool
		cfg.RebalancePeriod = time.Hour // driven manually
		c := New(cfg)
		tc.quarantine(c)
		// One eligible live step in the queue: the live pool is starved.
		g := poolVideo(1, true)
		g.remain = len(g.Steps)
		for _, s := range g.Steps {
			s.graph = g
		}
		c.requeueAfter(g.Steps[0], time.Minute)
		g.Steps[0].eligibleAt = 0
		c.rebalancePools()
		if c.Stats.PoolRebalances != 1 {
			t.Fatalf("%s: %d rebalances for a backlog of one", tc.name, c.Stats.PoolRebalances)
		}
		serving := 0
		for _, cw := range c.workers {
			if cw.pool != sched.UseLive {
				continue
			}
			if cw.standing == convicted || cw.host.Disabled() {
				t.Fatalf("%s: quarantined VCU %d moved to the starved live pool", tc.name, cw.vcu.ID)
			}
			serving++
		}
		if serving != 1 {
			t.Fatalf("%s: %d serving workers in the live pool, want 1", tc.name, serving)
		}
	}
}
