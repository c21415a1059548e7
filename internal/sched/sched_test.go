package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"openvcu/internal/codec"
	"openvcu/internal/vcu"
	"openvcu/internal/video"
)

func vcuType() *WorkerType {
	p := vcu.DefaultParams()
	return NewWorkerType("transcode-vcu", VCUWorkerCapacity(p), NewVCUCostModel(p))
}

func TestResourcesFitsSubAdd(t *testing.T) {
	const a, b, c = DimDecodeMillicores, DimEncodeMillicores, DimSlots
	r := Resources{a: 10, b: 5}
	need := Resources{a: 7}
	if !r.Fits(need) {
		t.Fatal("fits failed")
	}
	r.Sub(need)
	if r[a] != 3 {
		t.Fatalf("a=%d", r[a])
	}
	if r.Fits(Resources{a: 4}) {
		t.Fatal("overfit")
	}
	if r.Fits(Resources{c: 1}) {
		t.Fatal("absent dimension should be zero capacity")
	}
	r.Add(need)
	if r != (Resources{a: 10, b: 5}) {
		t.Fatalf("add/sub not inverse: %v", r)
	}
}

func TestFigure6Scenario(t *testing.T) {
	// Paper Fig. 6: worker 0 has no decode, worker 1 has some, the
	// request needs {D 500, E 3750}: worker 1 must be picked.
	wt := vcuType()
	s := NewScheduler(64)
	w0 := NewWorker(0, wt)
	w1 := NewWorker(1, wt)
	s.AddWorker(w0)
	s.AddWorker(w1)
	// Drain worker 0's decode capacity.
	if !w0.tryReserve(Resources{DimDecodeMillicores: 3000}) {
		t.Fatal("setup reserve failed")
	}
	need := Resources{DimDecodeMillicores: 500, DimEncodeMillicores: 3750}
	a, err := s.Schedule(need, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Worker.ID != 1 {
		t.Fatalf("picked worker %d, want 1", a.Worker.ID)
	}
	avail := w1.Available()
	if avail[DimDecodeMillicores] != 2500 || avail[DimEncodeMillicores] != 6250 {
		t.Fatalf("availability after grant: %v", avail)
	}
	a.Release()
	if !w1.Idle() {
		t.Fatal("release did not restore idle")
	}
}

func TestFirstFitByWorkerNumber(t *testing.T) {
	wt := vcuType()
	s := NewScheduler(2)
	for i := 0; i < 10; i++ {
		s.AddWorker(NewWorker(i, wt))
	}
	need := Resources{DimEncodeMillicores: 6000}
	// Each worker fits one such request: grants must go 0,1,2,...
	for i := 0; i < 10; i++ {
		a, err := s.Schedule(need, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.Worker.ID != i {
			t.Fatalf("grant %d went to worker %d", i, a.Worker.ID)
		}
	}
	if _, err := s.Schedule(need, nil); err != ErrNoCapacity {
		t.Fatalf("expected ErrNoCapacity, got %v", err)
	}
}

func TestExcludeFilter(t *testing.T) {
	wt := vcuType()
	s := NewScheduler(64)
	for i := 0; i < 3; i++ {
		s.AddWorker(NewWorker(i, wt))
	}
	a, err := s.Schedule(Resources{DimEncodeMillicores: 100},
		func(w *Worker) bool { return w.ID == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if a.Worker.ID != 1 {
		t.Fatalf("exclusion ignored: worker %d", a.Worker.ID)
	}
}

func TestVCUCostModelMOTvsSOT(t *testing.T) {
	p := vcu.DefaultParams()
	cost := NewVCUCostModel(p)
	mot := &StepRequest{
		InputRes: video.Res1080p, ChunkFrames: 150, Profile: codec.VP9Class,
		Mode: vcu.EncodeTwoPassOffline, Outputs: video.LadderBelow(video.Res1080p),
		TargetSeconds: 30,
	}
	sot := &StepRequest{
		InputRes: video.Res1080p, ChunkFrames: 150, Profile: codec.VP9Class,
		Mode: vcu.EncodeTwoPassOffline, Outputs: []video.Resolution{video.Res1080p},
		TargetSeconds: 30,
	}
	motRes := cost(mot)
	sotRes := cost(sot)
	if motRes[DimDRAMBytes] <= sotRes[DimDRAMBytes] {
		t.Error("MOT footprint should exceed SOT footprint")
	}
	if sotRes[DimDRAMBytes] < 100<<20 || motRes[DimDRAMBytes] > p.DRAMCapacity/4 {
		t.Errorf("1080p footprints implausible: SOT %d MOT %d", sotRes[DimDRAMBytes], motRes[DimDRAMBytes])
	}
	// MOT encodes ~1.87x the pixels of a single-output SOT.
	ratio := float64(motRes[DimEncodeMillicores]) / float64(sotRes[DimEncodeMillicores])
	if ratio < 1.6 || ratio > 2.1 {
		t.Errorf("MOT/SOT encode cost ratio %.2f", ratio)
	}
	// Identical decode needs (same input, hardware decode).
	if motRes[DimDecodeMillicores] != sotRes[DimDecodeMillicores] {
		t.Error("decode costs differ for same input")
	}
}

func TestSoftwareDecodeShiftsDimensions(t *testing.T) {
	p := vcu.DefaultParams()
	cost := NewVCUCostModel(p)
	req := &StepRequest{
		InputRes: video.Res720p, ChunkFrames: 150, Profile: codec.H264Class,
		Mode: vcu.EncodeTwoPassOffline, Outputs: []video.Resolution{video.Res720p},
		TargetSeconds: 20,
	}
	hw := cost(req)
	req.SoftwareDecode = true
	sw := cost(req)
	if sw[DimDecodeMillicores] != 0 {
		t.Error("software decode still charges decoder cores")
	}
	if sw[DimSoftwareDecode] != 1 {
		t.Error("synthetic dimension not charged")
	}
	if sw[DimHostCPUMillicores] <= hw[DimHostCPUMillicores] {
		t.Error("software decode should cost more host CPU")
	}
	if hw[DimDecodeMillicores] == 0 {
		t.Error("hardware decode should charge decoder cores")
	}
}

// TestExpectedStepSecondsReflectsWorkers: a step's nominal completion
// time is its latency target, 10 s when the request names none, however
// many workers its encoder runs: no request carries an intra-step
// worker count, so the watchdog and hedge deadlines derived from this
// value cannot be shortened by a speedup no run measured. The cost
// model sizes the step's resource shares to the same target.
func TestExpectedStepSecondsReflectsWorkers(t *testing.T) {
	r := &StepRequest{InputRes: video.Res720p, ChunkFrames: 150,
		Outputs: []video.Resolution{video.Res720p}, TargetSeconds: 30}
	if got := ExpectedStepSeconds(r); got != 30 {
		t.Fatalf("expected seconds %v, want the target 30", got)
	}
	cost := NewVCUCostModel(vcu.DefaultParams())
	slow := cost(r)
	r.TargetSeconds = 0
	if got := ExpectedStepSeconds(r); got != 10 {
		t.Fatalf("expected seconds %v with no target, want 10", got)
	}
	fast := cost(r)
	if fast[DimEncodeMillicores] <= slow[DimEncodeMillicores] {
		t.Errorf("a 10 s step charged %d encode millicores, a 30 s one %d: the cost model ignores the target",
			fast[DimEncodeMillicores], slow[DimEncodeMillicores])
	}
	r.TargetSeconds = 10
	if got, want := cost(r), fast; got != want {
		t.Errorf("a 10 s target costs %v, no target %v: the two defaults differ", got, want)
	}
}

func TestSchedulerRespectsStoppedWorkers(t *testing.T) {
	wt := vcuType()
	s := NewScheduler(64)
	w := NewWorker(0, wt)
	s.AddWorker(w)
	w.BeginDrain()
	if !w.TryRetire() {
		t.Fatal("stop failed")
	}
	if _, err := s.Schedule(Resources{DimEncodeMillicores: 1}, nil); err == nil {
		t.Fatal("stopped worker got work")
	}
}

func TestResourcesQuickProperties(t *testing.T) {
	// Sub then Add restores the original; Fits is consistent with Sub.
	gen := func(seed int64) (Resources, Resources) {
		r := rand.New(rand.NewSource(seed))
		dims := []Dim{DimDecodeMillicores, DimEncodeMillicores, DimDRAMBytes, DimSlots}
		have := Resources{}
		need := Resources{}
		for _, d := range dims {
			have[d] = int64(r.Intn(10000))
			need[d] = int64(r.Intn(10000))
		}
		return have, need
	}
	f := func(seed int64) bool {
		have, need := gen(seed)
		orig := have
		if !have.Fits(need) {
			return true // nothing to check
		}
		have.Sub(need)
		for k, v := range have {
			if v < 0 {
				t.Logf("negative dimension %d after Sub", k)
				return false
			}
		}
		have.Add(need)
		return have == orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResetCapacityAbsorbsStaleRelease(t *testing.T) {
	// The repair→readmit path resets a worker's capacity while a
	// pre-repair reservation is still outstanding; the stale release
	// must be clamped rather than overcommit the worker.
	wt := vcuType()
	w := NewWorker(0, wt)
	need := Resources{DimEncodeMillicores: 6000, DimDecodeMillicores: 1000}
	if !w.tryReserve(need) {
		t.Fatal("reserve failed")
	}
	w.BeginDrain()
	if w.TryRetire() {
		t.Fatal("retired a worker with a live reservation")
	}
	w.ResetCapacity()
	if w.Phase() != PhaseDraining {
		t.Fatalf("ResetCapacity moved the draining worker to %v", w.Phase())
	}
	if w.Available() != w.Capacity() {
		t.Fatalf("reset availability %v != capacity %v", w.Available(), w.Capacity())
	}
	// The void reservation's release arrives after the reset.
	w.Release(need)
	if w.Available() != w.Capacity() {
		t.Fatalf("stale release overcommitted worker: %v > %v",
			w.Available(), w.Capacity())
	}
}

func TestClampTo(t *testing.T) {
	const a, b = DimDecodeMillicores, DimEncodeMillicores
	r := Resources{a: 12, b: 3}
	r.ClampTo(Resources{a: 10, b: 5})
	if r != (Resources{a: 10, b: 3}) {
		t.Fatalf("clamp result %v", r)
	}
}
