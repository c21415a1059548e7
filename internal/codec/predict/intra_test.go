package predict

import "testing"

func mkRecon(w, h int, f func(x, y int) uint8) []uint8 {
	r := make([]uint8, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r[y*w+x] = f(x, y)
		}
	}
	return r
}

func TestDCPrediction(t *testing.T) {
	recon := mkRecon(16, 16, func(x, y int) uint8 { return 100 })
	nb := GatherNeighborsBounded(recon, 16, 16, 8, 8, 8, 0, &NeighborBuf{})
	dst := make([]uint8, 64)
	Predict(IntraDC, nb, dst, 8, 8)
	for i, v := range dst {
		if v != 100 {
			t.Fatalf("DC pixel %d = %d, want 100", i, v)
		}
	}
}

func TestDCNoNeighborsIsMidGray(t *testing.T) {
	recon := mkRecon(16, 16, func(x, y int) uint8 { return 33 })
	nb := GatherNeighborsBounded(recon, 16, 16, 0, 0, 8, 0, &NeighborBuf{})
	if nb.HasAbove || nb.HasLeft {
		t.Fatal("corner block should have no neighbors")
	}
	dst := make([]uint8, 64)
	Predict(IntraDC, nb, dst, 8, 8)
	if dst[0] != 128 {
		t.Fatalf("borderless DC = %d, want 128", dst[0])
	}
}

func TestHPropagatesLeftColumn(t *testing.T) {
	recon := mkRecon(16, 16, func(x, y int) uint8 { return uint8(y * 10) })
	nb := GatherNeighborsBounded(recon, 16, 16, 4, 0, 4, 0, &NeighborBuf{})
	dst := make([]uint8, 16)
	Predict(IntraH, nb, dst, 4, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if dst[y*4+x] != uint8(y*10) {
				t.Fatalf("H at (%d,%d) = %d want %d", x, y, dst[y*4+x], y*10)
			}
		}
	}
}

func TestVPropagatesTopRow(t *testing.T) {
	recon := mkRecon(16, 16, func(x, y int) uint8 { return uint8(x * 3) })
	nb := GatherNeighborsBounded(recon, 16, 16, 0, 4, 4, 0, &NeighborBuf{})
	dst := make([]uint8, 16)
	Predict(IntraV, nb, dst, 4, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if dst[y*4+x] != uint8(x*3) {
				t.Fatalf("V at (%d,%d) = %d want %d", x, y, dst[y*4+x], x*3)
			}
		}
	}
}

func TestTMGradient(t *testing.T) {
	// A linear ramp is exactly reproduced by TrueMotion prediction.
	recon := mkRecon(16, 16, func(x, y int) uint8 { return uint8(x*4 + y*5) })
	nb := GatherNeighborsBounded(recon, 16, 16, 4, 4, 4, 0, &NeighborBuf{})
	dst := make([]uint8, 16)
	Predict(IntraTM, nb, dst, 4, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			want := uint8((x+4)*4 + (y+4)*5)
			if dst[y*4+x] != want {
				t.Fatalf("TM at (%d,%d) = %d want %d", x, y, dst[y*4+x], want)
			}
		}
	}
}

func TestTMFallsBackWithoutNeighbors(t *testing.T) {
	recon := mkRecon(8, 8, func(x, y int) uint8 { return 10 })
	nb := GatherNeighborsBounded(recon, 8, 8, 0, 0, 4, 0, &NeighborBuf{})
	dst := make([]uint8, 16)
	Predict(IntraTM, nb, dst, 4, 4)
	if dst[0] != 128 {
		t.Fatalf("TM without neighbors = %d, want DC fallback 128", dst[0])
	}
}

func TestGatherNeighborsEdgeExtension(t *testing.T) {
	// Block partially past the right edge: Above must edge-extend.
	recon := mkRecon(10, 10, func(x, y int) uint8 { return uint8(x) })
	nb := GatherNeighborsBounded(recon, 10, 10, 8, 4, 4, 0, &NeighborBuf{})
	if nb.Above[0] != 8 || nb.Above[1] != 9 {
		t.Fatalf("above = %v", nb.Above[:2])
	}
	// columns 10, 11 clamp to column 9
	if nb.Above[2] != 9 || nb.Above[3] != 9 {
		t.Fatalf("edge extension failed: %v", nb.Above)
	}
}

func TestAllModesProduceValidOutput(t *testing.T) {
	recon := mkRecon(32, 32, func(x, y int) uint8 { return uint8((x*7 + y*13) % 256) })
	for _, n := range []int{4, 8, 16, 32} {
		for m := IntraMode(0); m < NumIntraModes; m++ {
			nb := GatherNeighborsBounded(recon, 32, 32, 0, 0, n, 0, &NeighborBuf{})
			dst := make([]uint8, n*n)
			Predict(m, nb, dst, n, n) // must not panic
		}
	}
}
