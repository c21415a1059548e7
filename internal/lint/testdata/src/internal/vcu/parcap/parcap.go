// Package parcap is a parcapture-analyzer fixture: closures whose
// execution outlives their loop iteration capturing a shared loop
// variable, and goroutines started in loops writing captured state
// without a lock. Go 1.22 per-iteration `:=` variables, `k := k`
// copies, and indexed writes to disjoint slots are the accepted shapes
// and stay silent. A function literal handed to par.Do is such a
// goroutine body with the loop inside Do.
package parcap

import (
	"sync"

	"openvcu/internal/par"
)

func sink(int) {}

// sharedRange assigns an outer variable in the range clause: every
// iteration shares one k, and the goroutine races on which value it
// observes.
func sharedRange(xs []int) {
	var k int
	var wg sync.WaitGroup
	for _, k = range xs {
		wg.Add(1)
		go func() { // want "captures loop variable k"
			defer wg.Done()
			sink(k)
		}()
	}
	wg.Wait()
}

// sharedIndex stores closures over an outer 3-clause index: they all
// see the final value when invoked after the loop.
func sharedIndex(n int) func() int {
	var i int
	var fns []func() int
	for i = 0; i < n; i++ {
		fns = append(fns, func() int { return i }) // want "captures loop variable i"
	}
	if len(fns) == 0 {
		return nil
	}
	return fns[0]
}

// deferInLoop defers over the shared variable: every deferred call runs
// after the loop with its final value.
func deferInLoop(xs []int) {
	var k int
	for _, k = range xs {
		defer func() { sink(k) }() // want "captures loop variable k"
	}
}

// perIteration declares k in the range clause: Go 1.22 gives each
// iteration its own copy, so the capture is safe.
func perIteration(xs []int) {
	var wg sync.WaitGroup
	for _, k := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sink(k)
		}()
	}
	wg.Wait()
}

// copyFirst shares k in the clause but copies it per-iteration before
// capturing — the pre-1.22 idiom, still accepted.
func copyFirst(xs []int) {
	var k int
	var wg sync.WaitGroup
	for _, k = range xs {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			sink(k)
		}()
	}
	wg.Wait()
}

// immediateCall runs the closure inside the iteration: it always sees
// the current value.
func immediateCall(xs []int) {
	var k int
	for _, k = range xs {
		func() { sink(k) }()
	}
}

// tallyRace accumulates into a captured counter from goroutines with no
// synchronization: concurrent iterations race on total.
func tallyRace(xs []int) int {
	total := 0
	var wg sync.WaitGroup
	for _, k := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			total += k // want "writes captured total"
		}()
	}
	wg.Wait()
	return total
}

// tallyLocked guards the shared write with a mutex inside the closure:
// the sanctioned pattern.
func tallyLocked(xs []int) int {
	var mu sync.Mutex
	total := 0
	var wg sync.WaitGroup
	for _, k := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			total += k
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}

// perSlot writes disjoint indexed slots: each goroutine owns its own
// element, the fan-out idiom used by the encode pipeline.
func perSlot(xs []int) []int {
	out := make([]int, len(xs))
	var wg sync.WaitGroup
	for i, k := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = k * 2
		}()
	}
	wg.Wait()
	return out
}

// oneSlot indexes with a constant: every goroutine writes out[0], the
// race of tallyRace behind an index.
func oneSlot(xs []int) int {
	out := make([]int, 1)
	var wg sync.WaitGroup
	for _, k := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[0] = k * 2 // want "writes captured out\[0\]"
		}()
	}
	wg.Wait()
	return out[0]
}

// doTally counts in one captured int from the function par.Do runs
// concurrently: tallyRace without a go statement in sight.
func doTally(xs []int) (int, error) {
	failed := 0
	err := par.Do(len(xs), 2, func(i int) error {
		if xs[i] < 0 {
			failed++ // want "function run by par.Do writes captured failed"
		}
		return nil
	})
	return failed, err
}

// doPerSlot writes the slot its index parameter names: the accepted
// shape, as in perSlot.
func doPerSlot(xs []int) ([]int, error) {
	out := make([]int, len(xs))
	err := par.Do(len(xs), 2, func(i int) error {
		out[i] = xs[i] * 2
		return nil
	})
	return out, err
}

// doOuterIndex indexes with the enclosing loop's variable, which every
// call of one Do shares: out[r] is one slot for all of them.
func doOuterIndex(rows [][]int) ([]int, error) {
	out := make([]int, len(rows))
	for r, xs := range rows {
		err := par.Do(len(xs), 2, func(i int) error {
			out[r] += xs[i] // want "function run by par.Do writes captured out\[r\]"
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// blankDiscard assigns to the blank identifier inside the goroutine:
// `_` is not storage, so there is nothing to race on.
func blankDiscard(xs []int) {
	var wg sync.WaitGroup
	for _, k := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = k
		}()
	}
	wg.Wait()
}

// suppressedShared documents a deliberate latest-value sample.
func suppressedShared(xs []int) {
	var k int
	var wg sync.WaitGroup
	for _, k = range xs {
		wg.Add(1)
		//lint:ignore parcapture fixture closure deliberately samples the latest value
		go func() {
			defer wg.Done()
			sink(k)
		}()
	}
	wg.Wait()
}
