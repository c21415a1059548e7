package par

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// do is Do under a deadline: a join that cannot complete (a Done some
// path skips) is a failure that says so, not the package's timeout.
func do(t *testing.T, n, limit int, fn func(i int) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- Do(n, limit, fn) }()
	select {
	case err := <-done:
		return err
	case <-time.After(2 * time.Second):
		t.Fatalf("Do(%d, %d, fn) has not returned after 2s", n, limit)
		return nil
	}
}

// Every index is called exactly once and none is still running, or yet
// to start, when Do returns — at any limit, some calls failing or none.
func TestDoCallsEveryIndexAndJoins(t *testing.T) {
	const n = 40
	for _, limit := range []int{-1, 0, 1, 2, 3, n, n + 5} {
		for _, failing := range []bool{false, true} {
			calls := make([]int, n)
			var running, finished atomic.Int64
			err := do(t, n, limit, func(i int) error {
				running.Add(1)
				defer running.Add(-1)
				calls[i]++
				time.Sleep(50 * time.Microsecond) // give a missing join something to miss
				finished.Add(1)
				if failing && i%7 == 3 {
					return fmt.Errorf("piece %d", i)
				}
				return nil
			})
			if r, f := running.Load(), finished.Load(); r != 0 || f != n {
				t.Fatalf("limit %d: Do returned with %d calls running and %d of %d finished", limit, r, f, n)
			}
			for i, c := range calls {
				if c != 1 {
					t.Fatalf("limit %d: fn(%d) called %d times", limit, i, c)
				}
			}
			if failing != (err != nil) {
				t.Fatalf("limit %d failing %v: Do returned %v", limit, failing, err)
			}
			if failing && err.Error() != "piece 3" {
				t.Fatalf("limit %d: Do returned %q, the lowest failing piece is 3", limit, err)
			}
		}
	}
}

// The error is the lowest failing index's even when it is the last to
// arrive and a successful call finishes after it.
func TestDoReturnsLowestFailingIndex(t *testing.T) {
	err2, err5 := errors.New("piece 2"), errors.New("piece 5")
	failed5, failed2 := make(chan struct{}), make(chan struct{})
	err := do(t, 8, 0, func(i int) error {
		switch i {
		case 5:
			defer close(failed5)
			return err5
		case 2:
			<-failed5
			defer close(failed2)
			return err2
		case 0:
			<-failed2
			time.Sleep(time.Millisecond) // let fn(2)'s error land first
		}
		return nil
	})
	if err != err2 {
		t.Fatalf("Do returned %v, want %v", err, err2)
	}
}

// At most limit calls run at once, and limit of them do: the first limit
// calls wait for each other, so fewer goroutines than that never get past
// them.
func TestDoRunsLimitCallsAtOnce(t *testing.T) {
	const n, limit = 24, 3
	var running, peak atomic.Int64
	var arrived atomic.Int64
	var together sync.WaitGroup
	together.Add(limit)
	err := do(t, n, limit, func(i int) error {
		now := running.Add(1)
		defer running.Add(-1)
		for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
		}
		if arrived.Add(1) <= limit {
			together.Done()
			together.Wait()
		}
		time.Sleep(200 * time.Microsecond) // let a goroutine over the limit show itself
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != limit {
		t.Fatalf("peak concurrency %d, limit %d", got, limit)
	}
}

// One piece, or a limit of one, is a loop on the caller's goroutine:
// in order, nothing allocated, nothing started.
func TestDoInline(t *testing.T) {
	var order []int
	err := Do(5, 1, func(i int) error {
		order = append(order, i) // unsynchronized: the caller's goroutine
		if i == 1 || i == 3 {
			return fmt.Errorf("piece %d", i)
		}
		return nil
	})
	if fmt.Sprint(order) != "[0 1 2 3 4]" || err == nil || err.Error() != "piece 1" {
		t.Fatalf("Do(5, 1) called %v and returned %v", order, err)
	}
	for _, c := range []struct{ n, limit int }{{1, 0}, {1, 8}, {6, 1}, {0, 4}} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := Do(c.n, c.limit, func(int) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Do(%d, %d) allocates %v times: it started goroutines", c.n, c.limit, allocs)
		}
	}
}
