package cluster

import (
	"fmt"
	"reflect"

	"openvcu/internal/sim"
)

// Region is a set of clusters sharing one simulation clock, with the
// global routing behavior of §2.2: "a video is generally processed
// geographically close to the uploader but the global scheduler can send
// it further away when local capacity is unavailable."
type Region struct {
	Eng      *sim.Engine
	Clusters []*Cluster

	// OverflowQueueThreshold is the home-cluster ready-queue depth above
	// which new videos are routed away.
	OverflowQueueThreshold int

	// Routed counts placements per cluster; Overflowed counts videos that
	// left their home cluster.
	Routed     []int64
	Overflowed int64
}

// NewRegion builds n clusters with the given per-cluster config, all on
// one engine.
func NewRegion(cfg Config, n int) *Region {
	eng := sim.NewEngine()
	r := &Region{Eng: eng, OverflowQueueThreshold: 8, Routed: make([]int64, n)}
	for i := 0; i < n; i++ {
		ccfg := cfg
		ccfg.Seed = cfg.Seed + uint64(i)*97
		r.Clusters = append(r.Clusters, buildCluster(ccfg, eng))
	}
	return r
}

// Submit routes a video's graph: the home cluster when it has headroom,
// otherwise the least-loaded cluster in the region.
func (r *Region) Submit(home int, g *Graph) error {
	if home < 0 || home >= len(r.Clusters) {
		return fmt.Errorf("cluster: no cluster %d in region of %d", home, len(r.Clusters))
	}
	target := home
	if r.loadOf(home) > r.OverflowQueueThreshold {
		best := home
		bestLoad := r.loadOf(home)
		for i := range r.Clusters {
			if l := r.loadOf(i); l < bestLoad {
				best, bestLoad = i, l
			}
		}
		if best != home {
			target = best
			r.Overflowed++
		}
	}
	r.Routed[target]++
	r.Clusters[target].Submit(g)
	return nil
}

// loadOf is the routing load signal: ready-queue depth.
func (r *Region) loadOf(i int) int { return r.Clusters[i].QueueLen() }

// statLeaf is one int64 leaf of Stats: the struct-field and
// array-element indices that reach it, and whether it is a gauge that
// aggregates by max (its field, or an enclosing one, is tagged
// `stat:"max"`) rather than a counter that sums.
type statLeaf struct {
	path  []int
	gauge bool
}

// statLeaves is every leaf of Stats, walked once.
var statLeaves = walkStats(reflect.TypeOf(Stats{}), nil, false, nil)

func walkStats(t reflect.Type, path []int, gauge bool, out []statLeaf) []statLeaf {
	path = path[:len(path):len(path)] // siblings must not share a backing array
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			out = walkStats(f.Type, append(path, i), gauge || f.Tag.Get("stat") == "max", out)
		}
	case reflect.Array:
		for i := 0; i < t.Len(); i++ {
			out = walkStats(t.Elem(), append(path, i), gauge, out)
		}
	case reflect.Int64:
		out = append(out, statLeaf{path, gauge})
	default:
		panic("cluster: Stats leaf of type " + t.String() + " is not an int64")
	}
	return out
}

// in returns the leaf's value inside v, a Stats.
func (l statLeaf) in(v reflect.Value) reflect.Value {
	for _, i := range l.path {
		if v.Kind() == reflect.Array {
			v = v.Index(i)
		} else {
			v = v.Field(i)
		}
	}
	return v
}

// Accumulate folds o into s leaf by leaf — the region-level aggregation
// of per-cluster stats: counters sum, gauges take the max.
func (s *Stats) Accumulate(o Stats) {
	dst, src := reflect.ValueOf(s).Elem(), reflect.ValueOf(o)
	for _, l := range statLeaves {
		d, x := l.in(dst), l.in(src).Int()
		if l.gauge {
			x = max(x, d.Int())
		} else {
			x += d.Int()
		}
		d.SetInt(x)
	}
}

// Stats aggregates cluster stats across the region, including the
// per-priority goodput buckets — the region-level SLO-attainment view.
func (r *Region) Stats() Stats {
	var total Stats
	for _, c := range r.Clusters {
		total.Accumulate(c.Stats)
	}
	return total
}
