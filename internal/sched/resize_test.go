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
	if w.Phase() != PhaseDraining {
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
	if w.Phase() != PhaseParked {
		t.Fatalf("retired worker is %v", w.Phase())
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
	w.Activate(false)
	if w.Phase() != PhaseServing {
		t.Fatalf("activated worker is %v", w.Phase())
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
	w.Activate(true)
	if w.Phase() != PhaseWarming {
		t.Fatal("worker not warming")
	}
	if _, err := s.Schedule(need, nil); err == nil {
		t.Fatal("warming worker accepted work before the warmup cleared")
	}
	w.EndWarmup()
	a, err := s.Schedule(need, nil)
	if err != nil {
		t.Fatalf("warmed worker refused work: %v", err)
	}
	a.Release()
}

func TestStaleReleaseAfterActivateIsClamped(t *testing.T) {
	// A reservation granted before retirement releasing after
	// re-activation must not overcommit the worker — the same clamp
	// contract as the repair path's ResetCapacity. Only a repair can park
	// a worker under a live reservation: it voids what the drain was
	// waiting for.
	wt := vcuType()
	w := NewWorker(0, wt)
	need := Resources{DimEncodeMillicores: 1000}
	if !w.tryReserve(need) {
		t.Fatal("setup reserve failed")
	}
	w.BeginDrain()
	w.ResetCapacity()
	if !w.TryRetire() {
		t.Fatal("reset worker failed to retire")
	}
	w.Activate(false)
	w.Release(need)
	if w.Available() != w.Capacity() {
		t.Fatalf("stale release overcommitted: %v over %v", w.Available(), w.Capacity())
	}
}

// TestCapacityTransitionTable: every phase × event pair either lands
// where capacityMoves says or panics and leaves the phase alone.
func TestCapacityTransitionTable(t *testing.T) {
	phases := []Phase{PhaseServing, PhaseDraining, PhaseParked, PhaseWarming}
	events := []capacityEvent{evBeginDrain, evCancelDrain, evRetire, evActivate, evActivateCold, evEndWarmup}
	legal := 0
	for _, from := range phases {
		for _, ev := range events {
			w := NewWorker(0, vcuType())
			w.phase = from
			to, ok := capacityMoves[from][ev]
			func() {
				defer func() {
					if r := recover(); (r == nil) != ok {
						t.Errorf("%v --%s-->: table legal=%v, recovered %v", from, ev, ok, r)
					}
				}()
				w.move(ev)
			}()
			if !ok {
				to = from
			} else {
				legal++
			}
			if w.phase != to {
				t.Errorf("%v --%s--> landed on %v, want %v", from, ev, w.phase, to)
			}
		}
	}
	if legal != 8 {
		t.Errorf("%d legal moves, the lifecycle has 8", legal)
	}
}

// TestShrinkOfWarmingWorkerAbandonsWarmup: the corner three booleans
// left open. A warming worker picked by a shrink parks at once (it has
// granted nothing), and its next activation warms from the start.
func TestShrinkOfWarmingWorkerAbandonsWarmup(t *testing.T) {
	w := NewWorker(0, vcuType())
	w.BeginDrain()
	w.TryRetire()
	w.Activate(true)
	w.BeginDrain()
	if !w.TryRetire() || w.Phase() != PhaseParked {
		t.Fatalf("warming worker did not park: %v", w.Phase())
	}
	w.Activate(true)
	if w.Phase() != PhaseWarming {
		t.Fatalf("re-activated worker is %v, want warming", w.Phase())
	}
	if w.tryReserve(Resources{DimEncodeMillicores: 1}) {
		t.Fatal("worker served before its second warm-up ended")
	}
}
