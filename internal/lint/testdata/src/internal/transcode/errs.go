// Package transcode is an errdrop-analyzer fixture.
package transcode

import "os"

func flushIndex() error {
	return nil
}

func loadCount() (int, error) {
	return 0, nil
}

type queue struct{}

// Close here has no error result, so dropping it is fine everywhere.
func (q *queue) Close() {}

type store struct{}

func (s *store) Persist() error { return nil }

func bareCall() {
	flushIndex() // want "error result of flushIndex is silently dropped"
}

func blankAssign() {
	_ = flushIndex() // want "error result of flushIndex assigned to _"
}

func blankPair() int {
	n, _ := loadCount() // want "error result of loadCount assigned to _"
	return n
}

func methodDrop(s *store) {
	s.Persist() // want "error result of s.Persist is silently dropped"
}

func noErrClose(q *queue) {
	q.Close() // fine: this Close returns nothing
}

func fileClose(path string) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close() // want "deferred f.Close drops its error"
}

func handled() error {
	if err := flushIndex(); err != nil {
		return err
	}
	n, err := loadCount()
	if err != nil {
		return err
	}
	_ = n
	return nil
}

func suppressedDrop() {
	//lint:ignore errdrop fixture demonstrates an accepted best-effort flush
	flushIndex()
}

// spool and uplink both have a Drain method; only uplink's can fail.
// Which one a call drops is decided by the receiver's type, not by the
// method's name.
type spool struct{}

func (s *spool) Drain() {}

type uplink struct{}

func (u *uplink) Drain() error { return nil }

func drainBoth(s *spool, u *uplink) {
	s.Drain() // fine: this Drain returns nothing
	u.Drain() // want "error result of u.Drain is silently dropped"
}
