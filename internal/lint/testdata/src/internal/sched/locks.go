// Package sched is a lockhygiene-analyzer fixture.
package sched

import "sync"

type counter struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

// goodDefer is the canonical shape.
func (c *counter) goodDefer() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// goodStraightLine releases on the only path with no return between.
func (c *counter) goodStraightLine() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// goodRead uses the reader lock correctly.
func (c *counter) goodRead() int {
	c.rw.RLock()
	defer c.rw.RUnlock()
	return c.n
}

// badNeverUnlocked leaks the mutex.
func (c *counter) badNeverUnlocked() {
	c.mu.Lock() // want "never released in this function"
	c.n++
}

// badReturnBetween can exit with the lock held.
func (c *counter) badReturnBetween(cond bool) int {
	c.mu.Lock() // want "not released on every path"
	if cond {
		return -1
	}
	c.n++
	c.mu.Unlock()
	return c.n
}

// badKindMismatch releases the wrong lock kind.
func (c *counter) badKindMismatch() {
	c.rw.RLock() // want "never released in this function"
	c.n++
	c.rw.Unlock()
}

// goodBranchUnlock releases on every path before returning.
func (c *counter) goodBranchUnlock(cond bool) int {
	c.mu.Lock()
	if cond {
		c.mu.Unlock()
		return -1
	}
	c.n++
	c.mu.Unlock()
	return c.n
}

// goodLoopBody locks and unlocks inside a loop body.
func (c *counter) goodLoopBody(k int) {
	for i := 0; i < k; i++ {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}
}

// badBranchDefer leaks on the else path: the defer in the if branch
// only covers paths that execute it. (Regression fixture for the PR 1
// heuristic, which accepted a defer anywhere in the function.)
func (c *counter) badBranchDefer(cond bool) int {
	if cond {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.n
	}
	c.mu.Lock() // want "not released on every path"
	c.n++
	return c.n
}

// badDoubleLock re-locks a mutex it already holds: self-deadlock.
func (c *counter) badDoubleLock() {
	c.mu.Lock()
	c.n++
	c.mu.Lock() // want "already held"
	c.n++
	c.mu.Unlock()
	c.mu.Unlock()
}

// badUnlockOnUnlockedPath unlocks unconditionally after a conditional
// lock.
func (c *counter) badUnlockOnUnlockedPath(cond bool) {
	if cond {
		c.mu.Lock()
		c.n++
	}
	c.mu.Unlock() // want "not locked"
}

// goodLoopLock holds across loop iterations but releases before every
// exit, including the early break.
func (c *counter) goodLoopLock(k int) {
	c.mu.Lock()
	for i := 0; i < k; i++ {
		if c.n > 100 {
			c.mu.Unlock()
			return
		}
		c.n++
	}
	c.mu.Unlock()
}

// suppressedHandoff intentionally transfers the lock to the caller.
func (c *counter) suppressedHandoff() {
	//lint:ignore lockhygiene lock ownership is handed to the caller, released in releaseHandoff
	c.mu.Lock()
	c.n++
}

func (c *counter) releaseHandoff() {
	c.mu.Unlock()
}

// badRelockThroughCallee takes c.mu and calls a helper that takes it
// again two calls down: badDoubleLock with the second Lock in another
// body.
func (c *counter) badRelockThroughCallee() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bump() // want "call to sched.counter.bump acquires sched.counter.mu \(via sched.counter.bump -> sched.counter.goodStraightLine\) while c.mu is held"
}

func (c *counter) bump() { c.goodStraightLine() }

// goodCallAfterUnlock calls the same helper with the lock released.
func (c *counter) goodCallAfterUnlock() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.bump()
}
