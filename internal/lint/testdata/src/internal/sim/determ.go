// Package sim is a determinism-analyzer fixture: it lives under a
// virtual-clock directory, so wall-clock, global-RNG, and ordered map
// iteration must all be flagged.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

func wallClock() time.Duration {
	start := time.Now()          // want "wall-clock call time.Now"
	time.Sleep(time.Millisecond) // want "wall-clock call time.Sleep"
	return time.Since(start)     // want "wall-clock call time.Since"
}

func globalRand() int {
	n := rand.Intn(10)                 // want "global math/rand call rand.Intn"
	rand.Shuffle(n, func(i, j int) {}) // want "global math/rand call rand.Shuffle"
	return n
}

// seededRand is fine: the source is explicit.
func seededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

func mapAppend(m map[string]int) []string {
	var out []string
	for k := range m { // want "map iteration order leaks into an ordered result"
		out = append(out, k)
	}
	return out
}

func mapFloatSum(m map[string]float64) float64 {
	var total float64
	for _, v := range m { // want "map iteration order leaks into an ordered result"
		total += v
	}
	return total
}

func mapContention(m map[string]int, pool []int) int {
	taken := 0
	for k, need := range m { // want "map iteration order leaks into an ordered result"
		_ = k
		for _, p := range pool {
			if taken >= need {
				break
			}
			taken += p
		}
	}
	return taken
}

// mapCount is order-independent (integer aggregation, no ordered sink)
// and must not be flagged.
func mapCount(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

func suppressed() time.Time {
	//lint:ignore determinism fixture demonstrates an explicitly accepted wall-clock read
	return time.Now()
}

func printNow() {
	fmt.Println("not a time call")
}

// nameIndex and nameList share a field name; only one of the fields is
// a map. Field types belong to their struct, not to the name: ranging
// the map into append leaks order, ranging the slice does not.
type nameIndex struct {
	items map[string]int
}

type nameList struct {
	items []string
}

func (x *nameIndex) names() []string {
	var out []string
	for k := range x.items { // want "map iteration order leaks into an ordered result"
		out = append(out, k)
	}
	return out
}

func (l *nameList) names() []string {
	var out []string
	for _, s := range l.items { // fine: a slice is already ordered
		out = append(out, s)
	}
	return out
}
