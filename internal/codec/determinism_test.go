package codec

import (
	"bytes"
	"runtime"
	"testing"

	"openvcu/internal/codec/rc"
	"openvcu/internal/video"
)

// TestEncodeDeterministicAcrossGOMAXPROCS: for each tile count, encoding
// the same clip with the pyramid search enabled must produce
// byte-identical bitstreams whether the tile workers run on 1 or 4
// procs (ISSUE 2: the pyramid cache is shared read-only across tile
// goroutines, and scratch buffers are per-tile — neither may introduce
// scheduling-dependent output).
func TestEncodeDeterministicAcrossGOMAXPROCS(t *testing.T) {
	frames := video.NewSource(video.SourceConfig{
		Width: 256, Height: 96, Seed: 11, Detail: 0.6, Motion: 1.5,
		ObjectMotion: 3, Objects: 2}).Frames(5)
	for _, tiles := range []int{1, 4} {
		cfg := Config{Profile: VP9Class, Width: 256, Height: 96,
			TileColumns: tiles, RC: rc.Config{BaseQP: 32}}
		var ref [][]byte
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			res, err := EncodeSequence(cfg, frames)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("tiles=%d procs=%d: %v", tiles, procs, err)
			}
			var pkts [][]byte
			for _, p := range res.Packets {
				pkts = append(pkts, p.Data)
			}
			if ref == nil {
				ref = pkts
				continue
			}
			if len(pkts) != len(ref) {
				t.Fatalf("tiles=%d: packet count %d vs %d across GOMAXPROCS", tiles, len(pkts), len(ref))
			}
			for i := range pkts {
				if !bytes.Equal(pkts[i], ref[i]) {
					t.Fatalf("tiles=%d: packet %d differs across GOMAXPROCS", tiles, i)
				}
			}
		}
	}
}

// TestEncodeDeterministicAcrossWorkers: the Workers knob bounds the
// goroutines tiles and filter stripes run on and must never change the
// bitstream — parallelism only changes wall clock. Sweeps Workers ×
// TileColumns for the VP9-class profile and the AV1-class profile (whose
// restoration search is striped too).
func TestEncodeDeterministicAcrossWorkers(t *testing.T) {
	cases := []struct {
		profile Profile
		w, h    int
		tiles   []int
	}{
		{VP9Class, 256, 96, []int{1, 2, 4}},
		{AV1Class, 256, 128, []int{1, 2}},
	}
	for _, c := range cases {
		frames := video.NewSource(video.SourceConfig{
			Width: c.w, Height: c.h, Seed: 11, Detail: 0.6, Motion: 1.5,
			ObjectMotion: 3, Objects: 2}).Frames(4)
		for _, tiles := range c.tiles {
			var ref [][]byte
			for _, workers := range []int{1, 2, 4, 8} {
				cfg := Config{Profile: c.profile, Width: c.w, Height: c.h,
					TileColumns: tiles, Workers: workers, RC: rc.Config{BaseQP: 32}}
				res, err := EncodeSequence(cfg, frames)
				if err != nil {
					t.Fatalf("%v tiles=%d workers=%d: %v", c.profile, tiles, workers, err)
				}
				var pkts [][]byte
				for _, p := range res.Packets {
					pkts = append(pkts, p.Data)
				}
				if ref == nil {
					ref = pkts
					continue
				}
				if len(pkts) != len(ref) {
					t.Fatalf("%v tiles=%d workers=%d: packet count %d vs %d",
						c.profile, tiles, workers, len(pkts), len(ref))
				}
				for i := range pkts {
					if !bytes.Equal(pkts[i], ref[i]) {
						t.Fatalf("%v tiles=%d workers=%d: packet %d differs from workers=1",
							c.profile, tiles, workers, i)
					}
				}
			}
		}
	}
}

// TestPyramidQualityParity: the pyramid-seeded search must not degrade
// compression on a moving clip — bits and PSNR stay close to the flat
// diamond baseline at the same QP.
func TestPyramidQualityParity(t *testing.T) {
	frames := video.NewSource(video.SourceConfig{
		Width: 320, Height: 192, Seed: 9, Detail: 0.6, Motion: 1.5,
		ObjectMotion: 3, Objects: 2}).Frames(6)
	encode := func(flat bool) (int, float64) {
		res, err := EncodeSequence(Config{Profile: VP9Class, Width: 320, Height: 192,
			RC: rc.Config{BaseQP: 36}, flatSearch: flat}, frames)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeSequence(res.Packets)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalBits, video.SequencePSNR(frames, dec)
	}
	pyrBits, pyrPSNR := encode(false)
	flatBits, flatPSNR := encode(true)
	if pyrBits > flatBits*110/100 {
		t.Errorf("pyramid bits %d vs flat %d (>10%% worse)", pyrBits, flatBits)
	}
	if pyrPSNR < flatPSNR-0.5 {
		t.Errorf("pyramid PSNR %.2f vs flat %.2f (>0.5 dB worse)", pyrPSNR, flatPSNR)
	}
	t.Logf("pyramid: %d bits %.2f dB; flat: %d bits %.2f dB", pyrBits, pyrPSNR, flatBits, flatPSNR)
}
