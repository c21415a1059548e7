// Package sched implements the video processing work scheduler of paper
// §3.3.3: an online multi-dimensional bin-packing scheduler over a fixed
// vector of scalar resource dimensions, with an in-memory availability
// cache, a greedy first-fit worker picker (Fig. 6), synthetic resources
// for indirect constraints, and the per-worker drain/retire/activate
// primitives the cluster's pools and autoscaler are built on.
//
// The package is not safe for concurrent use: a cluster's sim goroutine
// owns its scheduler, worker type and workers, and no other goroutine
// calls them.
package sched

import "fmt"

// Dim indexes one dimension of a Resources vector.
type Dim int

// The resource dimensions.
const (
	// DimDecodeMillicores / DimEncodeMillicores: fractional VCU codec
	// cores; each VCU exposes 3,000 millidecode and 10,000 milliencode
	// cores (Fig. 6).
	DimDecodeMillicores Dim = iota
	DimEncodeMillicores
	// DimDRAMBytes is VCU device memory.
	DimDRAMBytes
	// DimHostCPUMillicores is fractional host CPU.
	DimHostCPUMillicores
	// DimSoftwareDecode is a synthetic resource limiting host software
	// decode to indirectly protect PCIe bandwidth (§3.3.3).
	DimSoftwareDecode
	// DimSlots is the legacy one-dimensional "single slot per graph
	// step" model still used by CPU processing workers (§3.3.3).
	DimSlots
	// NumDims is the length of a Resources vector.
	NumDims
)

// Resources is one scalar amount per dimension; a dimension a worker
// type does not have is zero. It is a value: = copies, == compares.
type Resources [NumDims]int64

// Fits reports whether need fits within r.
func (r Resources) Fits(need Resources) bool {
	for d, v := range need {
		if r[d] < v {
			return false
		}
	}
	return true
}

// Sub subtracts need from r in place. It panics if need does not fit —
// callers check Fits first.
func (r *Resources) Sub(need Resources) {
	if !r.Fits(need) {
		panic(fmt.Sprintf("sched: over-commit: %v - %v", *r, need))
	}
	for d, v := range need {
		r[d] -= v
	}
}

// Add returns need to r in place.
func (r *Resources) Add(need Resources) {
	for d, v := range need {
		r[d] += v
	}
}

// ClampTo caps each dimension of r at limit's value. Used when a
// repaired worker's capacity is re-registered: a stale release from a
// pre-repair assignment must not inflate availability past capacity.
func (r *Resources) ClampTo(limit Resources) {
	for d, lim := range limit {
		if r[d] > lim {
			r[d] = lim
		}
	}
}
