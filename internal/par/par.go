// Package par is the platform's one fan-out: run n independent pieces of
// work on a bounded number of goroutines, wait for all of them, report
// the first failure. It is the chunk fan-out and assemble of the paper
// (§2.1 "Chunking and Parallel Transcoding Modes", §2.2) with the
// assembling left to the caller: chunks of an upload, closed GOPs of a
// sequence, tile columns of a frame and in-loop filter stripes all go
// through Do. What it restricts is what used to go wrong by hand at each
// site: the join cannot be skipped or raced by a late Add, a failing
// piece cannot skip its Done, and the lowest failing piece's error is
// kept under a lock.
// Scratch that outlives a call belongs to the caller, by index (the
// codec's tile coders, one per tile column).
package par

import (
	"sync"
	"sync/atomic"
)

// Do calls fn(i) for every i in [0, n) on at most limit goroutines
// (limit <= 0: one per piece), the caller's among them, and returns only
// after every call has returned, failed or not. The error is that of
// the lowest failing i, whatever order the calls finished in, so a
// result assembled from per-i slots and the error reported with it do
// not depend on scheduling. With n <= 1 or limit == 1 the calls run in
// order on the caller's goroutine and no goroutine is started.
//
// fn is called concurrently with itself: what it writes must be its
// own, by index (out[i] = ...) or under a lock.
func Do(n, limit int, fn func(i int) error) error {
	if limit <= 0 || limit > n {
		limit = n
	}
	if limit <= 1 {
		var err error
		for i := 0; i < n; i++ {
			if e := fn(i); e != nil && err == nil {
				err = e
			}
		}
		return err
	}
	// The caller works a share beside limit-1 goroutines; each worker is
	// one count of the WaitGroup, and one func value starts them all.
	s := &fanOut{fn: fn, n: n, low: n}
	s.wg.Add(limit)
	work := s.work
	for g := 1; g < limit; g++ {
		go work()
	}
	work()
	s.wg.Wait()
	return s.err
}

// fanOut is the state one Do call shares among its workers.
type fanOut struct {
	fn   func(i int) error
	n    int
	next atomic.Int64 // the next unclaimed index
	wg   sync.WaitGroup
	mu   sync.Mutex
	low  int // the lowest failing index so far, n while none has failed
	err  error
}

// work claims the next unclaimed index until none is left, keeping the
// lowest failure, then marks one worker done.
func (s *fanOut) work() {
	defer s.wg.Done()
	for i := int(s.next.Add(1)) - 1; i < s.n; i = int(s.next.Add(1)) - 1 {
		if err := s.fn(i); err != nil {
			s.mu.Lock()
			if i < s.low {
				s.low, s.err = i, err
			}
			s.mu.Unlock()
		}
	}
}
