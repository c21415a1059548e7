package sched

import "testing"

// Resize-primitive tests: the grow/shrink half of the autoscaler
// contract. Drain-before-remove means a shrinking worker finishes its
// in-flight reservations before it stops; scale-from-zero means a
// freshly activated worker refuses work until its warmup clears.

func TestDrainBeforeRemove(t *testing.T) {
	wt := vcuType()
	s := NewScheduler(64)
	w := NewWorker(0, wt)
	s.AddWorker(w)
	need := Resources{DimEncodeMillicores: 1000}

	a, err := s.Schedule(need, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.BeginDrain()
	if !w.Draining() {
		t.Fatal("worker not draining after BeginDrain")
	}
	// New work is refused while the drain is in progress...
	if _, err := s.Schedule(need, nil); err == nil {
		t.Fatal("draining worker accepted a new reservation")
	}
	// ...and the worker cannot retire while the in-flight step holds
	// its reservation.
	if w.TryRetire() {
		t.Fatal("worker retired with a reservation in flight")
	}
	a.Release()
	if !w.TryRetire() {
		t.Fatal("idle draining worker failed to retire")
	}
	if !w.Stopped() || w.Draining() {
		t.Fatalf("retired worker: stopped=%v draining=%v", w.Stopped(), w.Draining())
	}
	// Retiring is idempotent.
	if !w.TryRetire() {
		t.Fatal("TryRetire on a stopped worker should report success")
	}
}

func TestCancelDrainRestoresService(t *testing.T) {
	wt := vcuType()
	s := NewScheduler(64)
	w := NewWorker(0, wt)
	s.AddWorker(w)
	need := Resources{DimEncodeMillicores: 1000}

	w.BeginDrain()
	if _, err := s.Schedule(need, nil); err == nil {
		t.Fatal("draining worker accepted work")
	}
	w.CancelDrain()
	if a, err := s.Schedule(need, nil); err != nil {
		t.Fatalf("undrained worker refused work: %v", err)
	} else {
		a.Release()
	}
}

func TestActivateAfterRetire(t *testing.T) {
	wt := vcuType()
	s := NewScheduler(64)
	w := NewWorker(0, wt)
	s.AddWorker(w)
	need := Resources{DimEncodeMillicores: 1000}

	w.BeginDrain()
	if !w.TryRetire() {
		t.Fatal("idle worker failed to retire")
	}
	if _, err := s.Schedule(need, nil); err == nil {
		t.Fatal("retired worker accepted work")
	}
	w.Activate()
	if w.Stopped() || w.Draining() {
		t.Fatal("activated worker still stopped or draining")
	}
	if w.Available() != w.Capacity() {
		t.Fatal("activated worker not at full capacity")
	}
	a, err := s.Schedule(need, nil)
	if err != nil {
		t.Fatalf("activated worker refused work: %v", err)
	}
	a.Release()
}

func TestScaleFromZeroWarmup(t *testing.T) {
	wt := vcuType()
	s := NewScheduler(64)
	w := NewWorker(0, wt)
	s.AddWorker(w)
	need := Resources{DimEncodeMillicores: 1000}

	// Cold pool: the only worker is retired.
	w.BeginDrain()
	w.TryRetire()
	// Scale from zero: activation pays the warmup penalty before the
	// worker takes its first reservation.
	w.Activate()
	w.SetWarming(true)
	if !w.Warming() {
		t.Fatal("worker not warming")
	}
	if _, err := s.Schedule(need, nil); err == nil {
		t.Fatal("warming worker accepted work before the warmup cleared")
	}
	w.SetWarming(false)
	a, err := s.Schedule(need, nil)
	if err != nil {
		t.Fatalf("warmed worker refused work: %v", err)
	}
	a.Release()
}

func TestStaleReleaseAfterActivateIsClamped(t *testing.T) {
	// A reservation granted before retirement releasing after
	// re-activation must not overcommit the worker — the same clamp
	// contract as the repair path's ResetCapacity.
	wt := vcuType()
	w := NewWorker(0, wt)
	need := Resources{DimEncodeMillicores: 1000}
	if !w.tryReserve(need) {
		t.Fatal("setup reserve failed")
	}
	w.Activate() // voids the outstanding reservation
	w.Release(need)
	if w.Available() != w.Capacity() {
		t.Fatalf("stale release overcommitted: %v over %v", w.Available(), w.Capacity())
	}
}
