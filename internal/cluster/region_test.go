package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"openvcu/internal/codec"
	"openvcu/internal/vcu"
	"openvcu/internal/video"
)

func regionVideo(id int) *Graph {
	return BuildGraph(VideoSpec{
		ID: id, Resolution: video.Res1080p, FPS: 30, Frames: 600, ChunkFrames: 150,
		Profile: codec.VP9Class, Mode: vcu.EncodeTwoPassOffline, MOT: true}, 10)
}

func TestRegionHomePlacementWhenIdle(t *testing.T) {
	r := NewRegion(DefaultConfig(1), 3)
	done := 0
	for i := 0; i < 5; i++ {
		g := regionVideo(i)
		g.OnDone = func(*Graph) { done++ }
		if err := r.Submit(1, g); err != nil {
			t.Fatal(err)
		}
	}
	r.Eng.RunUntil(15 * time.Minute)
	if done != 5 {
		t.Fatalf("completed %d/5", done)
	}
	if r.Routed[1] != 5 || r.Overflowed != 0 {
		t.Fatalf("idle home cluster not preferred: routed=%v overflow=%d", r.Routed, r.Overflowed)
	}
}

func TestRegionOverflowsWhenHomeSaturated(t *testing.T) {
	r := NewRegion(DefaultConfig(1), 2)
	r.OverflowQueueThreshold = 4
	done := 0
	// Flood the home cluster with heavy 2160p MOTs far past its
	// concurrent capacity; the later submissions must land on the other
	// cluster.
	const videos = 60
	for i := 0; i < videos; i++ {
		g := BuildGraph(VideoSpec{
			ID: i, Resolution: video.Res2160p, FPS: 30, Frames: 600, ChunkFrames: 150,
			Profile: codec.VP9Class, Mode: vcu.EncodeTwoPassOffline, MOT: true}, 3)
		g.OnDone = func(*Graph) { done++ }
		if err := r.Submit(0, g); err != nil {
			t.Fatal(err)
		}
	}
	r.Eng.RunUntil(2 * time.Hour)
	if done != videos {
		t.Fatalf("completed %d/%d", done, videos)
	}
	if r.Overflowed == 0 || r.Routed[1] == 0 {
		t.Fatalf("no overflow despite saturation: routed=%v overflow=%d", r.Routed, r.Overflowed)
	}
	if r.Routed[0] == 0 {
		t.Fatal("home cluster got nothing")
	}
}

func TestRegionRejectsBadHome(t *testing.T) {
	r := NewRegion(DefaultConfig(1), 2)
	if err := r.Submit(5, regionVideo(1)); err == nil {
		t.Fatal("bad home cluster accepted")
	}
}

func TestRegionStatsAggregate(t *testing.T) {
	r := NewRegion(DefaultConfig(1), 2)
	for i := 0; i < 4; i++ {
		_ = r.Submit(i%2, regionVideo(i))
	}
	r.Eng.RunUntil(15 * time.Minute)
	s := r.Stats()
	if s.StepsCompleted != 4*8 {
		t.Fatalf("aggregate steps %d, want 32", s.StepsCompleted)
	}
}

// numericLeaves calls visit on every numeric leaf of v with its path.
func numericLeaves(v reflect.Value, path string, visit func(path string, leaf reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			numericLeaves(v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			numericLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	default:
		visit(path, v)
	}
}

// TestAccumulateCoversEveryStatsField: every numeric leaf of Stats,
// nested structs and arrays included, must survive the regional
// roll-up. Sum and max both reproduce the source when accumulating into
// a zero Stats, so a leaf that differs was dropped or crossed.
func TestAccumulateCoversEveryStatsField(t *testing.T) {
	var src, sum Stats
	n := int64(0)
	numericLeaves(reflect.ValueOf(&src).Elem(), "Stats", func(path string, leaf reflect.Value) {
		n++
		switch {
		case leaf.CanInt():
			leaf.SetInt(n)
		case leaf.CanUint():
			leaf.SetUint(uint64(n))
		case leaf.CanFloat():
			leaf.SetFloat(float64(n))
		default:
			t.Fatalf("%s: %s is not a numeric leaf; teach this test how to fill it", path, leaf.Kind())
		}
	})
	sum.Accumulate(src)
	numericLeaves(reflect.ValueOf(sum), "Stats", func(path string, leaf reflect.Value) {
		if leaf.IsZero() {
			t.Errorf("%s: dropped by Accumulate", path)
		}
	})
	if !t.Failed() && sum != src {
		t.Errorf("Accumulate into zero Stats = %+v, want %+v", sum, src)
	}
}
