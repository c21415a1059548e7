package sched

import (
	"flag"
	"os"
	"testing"
	"time"
)

// opDeadline is what one scheduler operation may take before a test
// gives up on it. They all take microseconds, or for ever: the only way
// to miss it is a lock that was leaked or taken twice.
const opDeadline = 3 * time.Second

// within runs f on a goroutine of its own and fails the test, naming
// op, if f has not returned after d. Without it a leaked lock shows as
// the test binary's timeout, a minute and a half later and with no
// name. f is not on the test's goroutine: it must not call t.Fatal,
// and what it computes is read after within returns.
func within(t *testing.T, d time.Duration, op string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		t.Fatalf("%s has not returned after %v: a lock it takes is held and will not be released", op, d)
	}
}

// TestMain stops the package at its first failing test. A lock bug of
// the kind within names wedges nearly every other test here as well,
// none of which has a deadline: the one named failure is the result,
// not that plus a timeout.
func TestMain(m *testing.M) {
	if err := flag.Set("test.failfast", "true"); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}
