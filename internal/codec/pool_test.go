package codec

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"openvcu/internal/codec/rc"
	"openvcu/internal/video"
)

// poolWorkers returns the stack of every goroutine running a tile-pool
// worker. It polls for up to 2 s before it answers with any: a worker
// that close has joined may still be on its way out.
func poolWorkers() []string {
	deadline := time.Now().Add(2 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		var live []string
		for _, g := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(g, "codec.(*tilePool).worker") {
				live = append(live, g)
			}
		}
		if len(live) == 0 || time.Now().After(deadline) {
			return live
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMain fails the package when a tile pool outlives its tests: an
// Encoder with Workers > 1 that a test, or a product path a test
// reaches, never closed.
func TestMain(m *testing.M) {
	code := m.Run()
	if live := poolWorkers(); len(live) > 0 {
		fmt.Fprintf(os.Stderr, "%d tile-pool workers outlive the tests: an Encoder was not closed\n\n%s\n",
			len(live), strings.Join(live, "\n\n"))
		code = 1
	}
	os.Exit(code)
}

// TestEncoderCloseLifecycle pins the pool lifecycle: Close joins the
// workers, is idempotent, and is a no-op on a pool-less encoder. Runs
// an encode in between so the join happens with a warmed pool. An
// EncodeSequence that fails part-way joins its pool too.
func TestEncoderCloseLifecycle(t *testing.T) {
	frames := video.NewSource(video.SourceConfig{
		Width: 128, Height: 64, Seed: 3, Detail: 0.5, Motion: 1}).Frames(2)
	cfg := Config{Profile: VP9Class, Width: 128, Height: 64, TileColumns: 2, RC: rc.Config{BaseQP: 32}}
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		enc, err := NewEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			if _, err := enc.Encode(f); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Close(); err != nil {
			t.Fatalf("workers=%d: Close: %v", workers, err)
		}
		if err := enc.Close(); err != nil {
			t.Fatalf("workers=%d: second Close: %v", workers, err)
		}
	}
	if live := poolWorkers(); len(live) > 0 {
		t.Fatalf("%d pool workers still running after Close", len(live))
	}

	cfg.Workers = 4
	if _, err := EncodeSequence(cfg, append(frames, video.NewFrame(64, 64))); err == nil {
		t.Fatal("EncodeSequence accepted a 64x64 frame into a 128x64 sequence")
	}
	if live := poolWorkers(); len(live) > 0 {
		t.Fatalf("EncodeSequence failed on its last frame and left %d pool workers running:\n\n%s",
			len(live), strings.Join(live, "\n\n"))
	}
}
