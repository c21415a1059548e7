package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"openvcu/internal/bits"
	"openvcu/internal/codec"
	"openvcu/internal/codec/fbc"
	"openvcu/internal/codec/filter"
	"openvcu/internal/codec/motion"
	"openvcu/internal/codec/rc"
	"openvcu/internal/codec/transform"
	"openvcu/internal/container"
	"openvcu/internal/fleetsim"
	"openvcu/internal/lint"
	"openvcu/internal/sched"
	"openvcu/internal/sim"
	"openvcu/internal/tco"
	"openvcu/internal/transcode"
	"openvcu/internal/vcu"
	"openvcu/internal/video"
	wload "openvcu/internal/workload"
)

// The ledger is the per-layer half of the benchmark: every layer's
// public functions driven directly, from outside, on seeded inputs. It
// does not depend on which workload the traced run belongs to, so the
// five traced runs give five readings of each row. README.md lists, per
// row, the end-to-end metric and workload it should move.

// ledger collects the rows. budget is the time each repeated function
// is measured for; a zero budget (the smoke test) calls each once.
type ledger struct {
	seed   uint64
	budget time.Duration
	smoke  bool
	rows   map[string]metric
}

func runLedger(seed uint64, budget time.Duration, smoke bool) (map[string]metric, error) {
	l := &ledger{seed: seed, budget: budget, smoke: smoke, rows: map[string]metric{}}
	l.bits()
	l.video()
	l.kernels()
	if err := l.codec(); err != nil {
		return nil, err
	}
	if err := l.transcode(); err != nil {
		return nil, err
	}
	if err := l.container(); err != nil {
		return nil, err
	}
	l.sim()
	l.sched()
	l.vcuAndWorkload()
	if err := l.entryPoints(); err != nil {
		return nil, err
	}
	return l.rows, nil
}

func (l *ledger) put(name string, v float64, unit string) {
	l.rows[name] = metric{Value: v, Unit: unit}
}

// sink keeps results alive so the compiler cannot drop a measured call.
var sink int64

// measure calls fn once to size the batches, then repeatedly for about
// budget, and returns the median nanoseconds per call over five batches
// and the heap allocations per call. A zero budget calls fn once.
func measure(budget time.Duration, fn func()) (ns, allocs float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	t0 := time.Now()
	fn()
	first := time.Since(t0)
	n := int(budget / 5 / (first + 1))
	if n < 1 {
		// One call spends the budget. Unless it is many budgets long,
		// call once more and keep the faster: the first call of anything
		// pays for cold caches and pools.
		runtime.ReadMemStats(&ms)
		allocs = float64(ms.Mallocs - m0)
		if first < 8*budget {
			t0 = time.Now()
			fn()
			if again := time.Since(t0); again < first {
				first = again
			}
		}
		return float64(first), allocs
	}
	runtime.ReadMemStats(&ms)
	m0 = ms.Mallocs
	batches := make([]float64, 5)
	for b := range batches {
		t0 = time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batches[b] = float64(time.Since(t0)) / float64(n)
	}
	runtime.ReadMemStats(&ms)
	return median(batches), float64(ms.Mallocs-m0) / float64(5*n)
}

// onTwoCores runs fn with GOMAXPROCS(2) (where the machine has two),
// for the rows that measure what a second core buys; everything else in
// the benchmark runs on one.
func onTwoCores(fn func()) {
	if runtime.NumCPU() < 2 {
		fn()
		return
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	fn()
}

// perSec converts nanoseconds per call into units per second.
func perSec(units float64, ns float64) float64 { return units / (ns / 1e9) }

// --- bits -------------------------------------------------------------

// bits drives the range coder with a seeded, skewed symbol stream:
// even symbols through a fixed probability, odd ones through sixteen
// adaptive contexts, as the entropy layer mixes them.
func (l *ledger) bits() {
	n := 1 << 20
	if l.smoke {
		n = 1 << 12
	}
	r := newRNG(l.seed ^ 0x62697473)
	syms := make([]bool, n)
	for i := range syms {
		syms[i] = r.float() < 0.2
	}
	var data []byte
	encode := func() {
		e := bits.NewEncoder()
		var ctx [16]bits.AdaptiveProb
		for i := range ctx {
			ctx[i] = bits.NewAdaptiveProb(128)
		}
		for i, s := range syms {
			if i&1 == 0 {
				e.PutBool(s, 200)
			} else {
				e.PutAdaptive(s, &ctx[i>>1&15])
			}
		}
		data = e.Bytes()
	}
	ns, _ := measure(l.budget, encode)
	l.put("bits.bool_encode_mbit_per_s", perSec(float64(n), ns)/1e6, "Mbit/s")
	ns, _ = measure(l.budget, func() {
		d := bits.NewDecoder(data)
		var ctx [16]bits.AdaptiveProb
		for i := range ctx {
			ctx[i] = bits.NewAdaptiveProb(128)
		}
		ones := 0
		for i := 0; i < n; i++ {
			var s bool
			if i&1 == 0 {
				s = d.GetBool(200)
			} else {
				s = d.GetAdaptive(&ctx[i>>1&15])
			}
			if s {
				ones++
			}
		}
		sink += int64(ones)
	})
	l.put("bits.bool_decode_mbit_per_s", perSec(float64(n), ns)/1e6, "Mbit/s")
}

// --- video ------------------------------------------------------------

func (l *ledger) video() {
	src := video.NewSource(video.SourceConfig{Width: 640, Height: 360, Seed: l.seed, Detail: 0.5, Motion: 1.5, ObjectMotion: 2.5, Objects: 2})
	t := 0
	ns, _ := measure(l.budget, func() { sink += int64(src.Frame(t).Y[0]); t++ })
	l.put("video.source_frame_ms", ns/1e6, "ms")

	a, b := src.Frame(0), src.Frame(1)
	pix := float64(a.Pixels())
	ns, _ = measure(l.budget, func() {
		sink += int64(video.ScaleTo(a, video.Res240p).Y[0]) + int64(video.ScaleTo(a, video.Res144p).Y[0])
	})
	l.put("video.scale_mpix_per_s", perSec(2*pix, ns)/1e6, "Mpix/s")
	ns, _ = measure(l.budget, func() { sink += int64(video.FramePSNR(a, b)) })
	l.put("video.psnr_mpix_per_s", perSec(pix, ns)/1e6, "Mpix/s")
	dst := make([]uint8, 320*180)
	ns, _ = measure(l.budget, func() { video.Downsample2x(a.Y, 640, 360, dst) })
	l.put("video.downsample2x_mpix_per_s", perSec(pix, ns)/1e6, "Mpix/s")
}

// --- codec kernels ----------------------------------------------------

// kernelInput is the one input every codec.motion.* and
// codec.transform.* row shares: a seeded 640×360 plane as reference and
// a copy of it shifted by (3, 2) full pels as the current picture, so
// true motion exists and the search has something to find. (The
// motion_search16_flat_ns_per_op row of BENCH_codec.json times two
// unrelated planes under a baseline taken on a shifted one; these rows
// keep to the shifted definition that go test -bench uses.)
type kernelInput struct {
	w, h     int
	ref, cur []uint8
	frame    *video.Frame
}

func newKernelInput(seed uint64) kernelInput {
	const w, h = 640, 360
	f := video.NewSource(video.SourceConfig{Width: w, Height: h, Seed: seed, Detail: 0.7}).Frame(0)
	cur := make([]uint8, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sx, sy := x+3, y+2
			if sx >= w {
				sx = w - 1
			}
			if sy >= h {
				sy = h - 1
			}
			cur[y*w+x] = f.Y[sy*w+sx]
		}
	}
	return kernelInput{w: w, h: h, ref: f.Y, cur: cur, frame: f}
}

// residual is the n×n difference block at (100, 100), the transform
// rows' input.
func (k kernelInput) residual(n int) []int32 {
	out := make([]int32, n*n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			i := (100+y)*k.w + 100 + x
			out[y*n+x] = int32(k.cur[i]) - int32(k.ref[i])
		}
	}
	return out
}

func (l *ledger) kernels() {
	k := newKernelInput(l.seed)
	w := k.w
	at := k.cur[100*w+100:]
	ref := motion.Ref{Pix: k.ref, W: k.w, H: k.h}
	sharp := ref
	sharp.Sharp = true
	sc := motion.NewScratch()
	dst := make([]uint8, 16*16)
	row := func(name string, div float64, unit string, fn func()) {
		ns, _ := measure(l.budget, fn)
		l.put(name, ns/div, unit)
	}

	row("codec.motion.sad16_ns", 1, "ns", func() { sink += motion.PlanarSAD(at, w, k.ref[102*w+103:], w, 16) })
	p := motion.SearchParams{RangeX: 16, RangeY: 16, SubPelDepth: 2, LambdaMVCost: 2}
	row("codec.motion.search16_flat_ns", 1, "ns", func() {
		sink += int64(motion.Search(at, w, ref, 100, 100, motion.Zero, 16, p, sc).MV.X)
	})
	pyrRef, pp := ref, p
	pyrRef.Pyr = motion.BuildPyramid(k.ref, k.w, k.h)
	pp.Pyramid, pp.CurPyr = true, motion.BuildPyramid(k.cur, k.w, k.h)
	row("codec.motion.search16_pyramid_ns", 1, "ns", func() {
		sink += int64(motion.Search(at, w, pyrRef, 100, 100, motion.Zero, 16, pp, sc).MV.X)
	})
	row("codec.motion.sample_sharp16_ns", 1, "ns", func() {
		motion.SampleBlock(sharp, 100, 100, motion.MV{X: 3, Y: 5}, dst, 16, sc)
	})
	row("codec.motion.sample_compound16_ns", 1, "ns", func() {
		motion.SampleCompound(sharp, motion.MV{X: 3, Y: 5}, ref, motion.MV{X: -2, Y: 1}, 100, 100, dst, 16, sc)
	})
	row("codec.motion.build_pyramid_360p_us", 1e3, "us", func() {
		sink += int64(len(motion.BuildPyramid(k.cur, k.w, k.h).Levels))
	})

	for _, n := range []int{8, 32} {
		res, block := k.residual(n), make([]int32, n*n)
		name := "codec.transform.fwd8_ns"
		if n == 32 {
			name = "codec.transform.fwd32_ns"
		}
		row(name, 1, "ns", func() { copy(block, res); transform.Forward(block, n) })
	}
	coeffs := k.residual(32)
	transform.Forward(coeffs, 32)
	block := make([]int32, len(coeffs))
	row("codec.transform.quant32_ns", 1, "ns", func() { copy(block, coeffs); transform.Quantize(block, 32, 3) })

	work := k.frame.Clone()
	row("codec.filter.deblock_360p_us", 1e3, "us", func() { work.CopyFrom(k.frame); filter.Deblock(work, 8, 4) })
	ns, _ := measure(l.budget, func() { sink += int64(len(fbc.CompressPlane(k.ref, k.w, k.h))) })
	l.put("codec.fbc.compress_mb_per_s", perSec(float64(len(k.ref)), ns)/1e6, "MB/s")
}

// --- codec streams ----------------------------------------------------

// ledgerClip is the clip the whole-frame codec and transcode rows use.
func (l *ledger) ledgerClip(res video.Resolution, frames int) []*video.Frame {
	return video.NewSource(video.SourceConfig{
		Width: res.Width, Height: res.Height, FPS: 30, Seed: l.seed ^ 0x636c6970,
		Detail: 0.5, Motion: 1.5, ObjectMotion: 2.5, Objects: 2,
	}).Frames(frames)
}

func (l *ledger) codec() error {
	res, n := video.Res360p, 4
	if l.smoke {
		res, n = video.Res144p, 2
	}
	frames := l.ledgerClip(res, n)
	mpix := float64(n*res.Pixels()) / 1e6
	var err error
	encode := func(cfg codec.Config) (out *codec.SequenceResult, ns, allocs float64) {
		ns, allocs = measure(l.budget, func() {
			r, e := codec.EncodeSequence(cfg, frames)
			if e != nil {
				err = e
				return
			}
			out = r
		})
		return
	}
	base := codec.Config{Width: res.Width, Height: res.Height, FPS: 30, Speed: 2, Workers: 1,
		RC: rc.Config{Mode: rc.ModeConstQP, BaseQP: 32}}

	vp9 := base
	vp9.Profile = codec.VP9Class
	vp9Out, ns, allocs := encode(vp9)
	l.put("codec.encode_vp9_mpix_per_s", perSec(mpix, ns), "Mpix/s")
	l.put("codec.encode_allocs_per_frame", allocs/float64(n), "count")

	h264 := base
	h264.Profile = codec.H264Class
	h264Out, h264Ns, _ := encode(h264)
	l.put("codec.encode_h264_mpix_per_s", perSec(mpix, h264Ns), "Mpix/s")

	tiled := h264
	tiled.TileColumns, tiled.Workers = 2, 2
	onTwoCores(func() {
		_, serial, _ := encode(h264)
		_, ns, _ = encode(tiled)
		l.put("codec.tile_speedup_2", serial/ns, "ratio")
	})
	if err != nil {
		return err
	}

	ns, _ = measure(l.budget, func() { sink += int64(len(codec.FirstPassAnalyze(frames))) })
	l.put("codec.firstpass_mpix_per_s", perSec(mpix, ns), "Mpix/s")

	timeDecode := func(name string, out *codec.SequenceResult, allocName string) {
		ns, allocs := measure(l.budget, func() {
			dec, e := codec.DecodeSequence(out.Packets)
			if e != nil || len(dec) != n {
				err = firstErr(err, e, errFrames(len(dec), n))
			}
		})
		l.put(name, perSec(mpix, ns), "Mpix/s")
		if allocName != "" {
			l.put(allocName, allocs/float64(n), "count")
		}
	}
	timeDecode("codec.decode_vp9_mpix_per_s", vp9Out, "codec.decode_allocs_per_frame")
	timeDecode("codec.decode_h264_mpix_per_s", h264Out, "")
	if err != nil {
		return err
	}

	// Frame-parallel GOP encoding needs at least two closed GOPs.
	gopRes, gopN := video.Res240p, 8
	if l.smoke {
		gopRes, gopN = video.Res144p, 4
	}
	gopFrames := l.ledgerClip(gopRes, gopN)
	gop := codec.Config{Profile: codec.H264Class, Width: gopRes.Width, Height: gopRes.Height, FPS: 30,
		Speed: 2, Workers: 2, GOPLength: gopN / 2, RC: rc.Config{Mode: rc.ModeConstQP, BaseQP: 32}}
	onTwoCores(func() {
		seq, _ := measure(l.budget, func() {
			if _, e := codec.EncodeSequence(gop, gopFrames); e != nil {
				err = e
			}
		})
		par, _ := measure(l.budget, func() {
			if _, e := codec.EncodeSequenceParallel(gop, gopFrames); e != nil {
				err = e
			}
		})
		l.put("codec.gop_parallel_speedup_2", seq/par, "ratio")
	})
	return err
}

// errFrames is the error for a decode or read that came back short.
func errFrames(got, want int) error {
	if got == want {
		return nil
	}
	return fmt.Errorf("got %d frames or packets, want %d", got, want)
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// --- transcode --------------------------------------------------------

func (l *ledger) transcode() error {
	res, n := video.Res360p, 4
	if l.smoke {
		res, n = video.Res240p, 2
	}
	frames := l.ledgerClip(res, n)
	specs := transcode.LadderSpecs(res, codec.VP9Class, 0.08, 30, true)
	for i := range specs {
		specs[i].Speed, specs[i].Workers = 2, 1
	}
	var err error
	mot, _ := measure(l.budget, func() {
		if _, e := transcode.MOT(frames, 30, specs); e != nil {
			err = e
		}
	})
	sot, _ := measure(l.budget, func() {
		for _, s := range specs {
			if _, e := transcode.SOT(frames, 30, s); e != nil {
				err = e
			}
		}
	})
	l.put("transcode.mot_vs_sot_ratio", mot/sot, "ratio")

	chunkRes, chunkN := video.Res240p, 8
	if l.smoke {
		chunkRes, chunkN = video.Res144p, 4
	}
	chunks := transcode.SplitChunks(l.ledgerClip(chunkRes, chunkN), chunkN/2)
	top := transcode.LadderSpecs(chunkRes, codec.VP9Class, 0.08, 30, true)
	top = top[len(top)-1:]
	top[0].Speed, top[0].Workers = 2, 1
	chunked := func(parallelism int) float64 {
		ns, _ := measure(l.budget, func() {
			if _, e := transcode.Chunked(chunks, 30, top, parallelism); e != nil {
				err = e
			}
		})
		return ns
	}
	onTwoCores(func() { l.put("transcode.chunked_speedup_2", chunked(1)/chunked(2), "ratio") })
	return err
}

// --- container --------------------------------------------------------

// container drives the mux, demux and integrity sweep over a 1 MB
// stream of seeded payloads (the container never parses a payload).
func (l *ledger) container() error {
	packets, size := 64, 16<<10
	if l.smoke {
		packets, size = 8, 1<<10
	}
	r := newRNG(l.seed ^ 0x6d7578)
	var pkts []codec.Packet
	for i := 0; i < packets; i++ {
		data := make([]byte, size)
		for j := 0; j < size; j += 8 {
			v := r.next()
			for b := 0; b < 8; b++ {
				data[j+b] = byte(v >> (8 * b))
			}
		}
		pkts = append(pkts, codec.Packet{Data: data, Show: true, Keyframe: i%8 == 0, DisplayIdx: i, QP: 30})
	}
	mb := float64(packets*size) / 1e6
	var muxed []byte
	var err error
	ns, _ := measure(l.budget, func() {
		if muxed, err = mux(codec.H264Class, 640, 360, 30, pkts); err != nil {
			return
		}
	})
	if err != nil {
		return err
	}
	l.put("container.write_mb_per_s", perSec(mb, ns), "MB/s")
	ns, _ = measure(l.budget, func() {
		_, got, e := container.NewReader(bytes.NewReader(muxed)).ReadAll()
		err = firstErr(err, e, errFrames(len(got), packets))
	})
	l.put("container.read_mb_per_s", perSec(mb, ns), "MB/s")
	ns, _ = measure(l.budget, func() {
		ir, e := container.OpenIndexed(bytes.NewReader(muxed))
		if e == nil {
			e = ir.VerifyChunks()
		}
		err = firstErr(err, e)
	})
	l.put("container.verify_mb_per_s", perSec(mb, ns), "MB/s")
	ns, _ = measure(l.budget, func() {
		_, e := container.OpenIndexed(bytes.NewReader(muxed))
		err = firstErr(err, e)
	})
	l.put("container.open_indexed_us", ns/1e3, "us")
	return err
}

// --- sim --------------------------------------------------------------

func (l *ledger) sim() {
	// Self-rescheduling timers hold the event heap at a fixed depth.
	depth, events := 10000, 200000
	if l.smoke {
		depth, events = 100, 2000
	}
	timers := func() {
		eng := sim.NewEngine()
		r := newRNG(l.seed ^ 0x73696d)
		fired := 0
		var tick func()
		tick = func() {
			fired++
			if fired+depth <= events {
				eng.Schedule(time.Duration(1+r.next()%1000)*time.Microsecond, tick)
			}
		}
		for i := 0; i < depth; i++ {
			eng.Schedule(time.Duration(r.next()%1000)*time.Microsecond, tick)
		}
		eng.Run()
		sink += int64(fired)
	}
	ns, allocs := measure(l.budget, timers)
	l.put("sim.events_per_s", perSec(float64(events), ns), "1/s")
	l.put("sim.allocs_per_event", allocs/float64(events), "count")

	flows := 2000
	if l.smoke {
		flows = 50
	}
	ns, _ = measure(l.budget, func() {
		eng := sim.NewEngine()
		f := sim.NewFluid(eng, 100)
		r := newRNG(l.seed ^ 0x666c6f77)
		started := 0
		var start func()
		start = func() {
			if started < flows {
				started++
				f.Start(1+r.float(), 10+10*r.float(), start)
			}
		}
		for i := 0; i < 16; i++ { // sixteen concurrent flows: shared past capacity
			start()
		}
		eng.Run()
	})
	l.put("sim.fluid_flows_per_s", perSec(float64(flows), ns), "1/s")

	jobs := 20000
	if l.smoke {
		jobs = 200
	}
	ns, _ = measure(l.budget, func() {
		eng := sim.NewEngine()
		s := sim.NewServer(eng, 10)
		r := newRNG(l.seed ^ 0x6a6f62)
		for i := 0; i < jobs; i++ {
			s.Submit(time.Duration(1+r.next()%1000)*time.Microsecond, func() {})
		}
		eng.Run()
		sink += s.ServedJobs
	})
	l.put("sim.server_jobs_per_s", perSec(float64(jobs), ns), "1/s")
}

// --- sched ------------------------------------------------------------

func (l *ledger) sched() {
	p := vcu.DefaultParams()
	wt := sched.NewWorkerType("transcode-vcu", sched.VCUWorkerCapacity(p), sched.NewVCUCostModel(p))
	req := &sched.StepRequest{
		InputRes: video.Res1080p, FPS: 30, ChunkFrames: 150, Outputs: video.LadderBelow(video.Res1080p),
		Profile: codec.VP9Class, Mode: vcu.EncodeTwoPassOffline, TargetSeconds: 10,
	}
	ns, _ := measure(l.budget, func() { sink += int64(len(wt.Cost(req))) })
	l.put("sched.cost_ns", ns, "ns")

	need := wt.Cost(req)
	for _, n := range []int{20, 200, 2000} {
		s := sched.NewScheduler(64)
		for i := 0; i < n; i++ {
			s.AddWorker(sched.NewWorker(i, wt))
		}
		// Fill the first 70 % of the workers, one whole-capacity
		// reservation each: first fit goes in worker order, so a timed
		// placement scans the full workers before it finds room.
		for i := 0; i < n*7/10; i++ {
			if _, err := s.Schedule(wt.Capacity, nil); err != nil {
				break
			}
		}
		ns, allocs := measure(l.budget, func() {
			if a, err := s.Schedule(need, nil); err == nil {
				a.Release()
			}
		})
		switch n {
		case 20:
			l.put("sched.place_per_s_20", perSec(1, ns), "1/s")
		case 200:
			l.put("sched.place_per_s_200", perSec(1, ns), "1/s")
		default:
			l.put("sched.place_per_s_2000", perSec(1, ns), "1/s")
			l.put("sched.allocs_per_place", allocs, "count")
		}
	}
}

// --- vcu, workload ----------------------------------------------------

func (l *ledger) vcuAndWorkload() {
	simTime, blocks, horizon := 60*time.Second, 20000, time.Hour
	if l.smoke {
		simTime, blocks, horizon = 5*time.Second, 500, time.Minute
	}
	w := vcu.Workload{Mode: vcu.ModeMOT, Profile: codec.VP9Class, Encode: vcu.EncodeTwoPassOffline, InputRes: video.Res1080p}
	var chunks int64
	ns, _ := measure(l.budget, func() { chunks = vcu.RunThroughput(vcu.DefaultParams(), 20, w, simTime).ChunksCompleted })
	// One decode plus one encode per ladder rung per completed chunk.
	ops := float64(chunks) * float64(1+len(video.LadderBelow(video.Res1080p)))
	l.put("vcu.ops_per_wall_s", perSec(ops, ns), "1/s")

	pcfg := vcu.DefaultPipelineConfig()
	pcfg.Seed = l.seed
	ns, _ = measure(l.budget, func() { sink += int64(vcu.SimulatePipeline(pcfg, blocks).TotalCycles) })
	l.put("vcu.pipeline_blocks_per_s", perSec(float64(blocks), ns), "1/s")

	acfg := wload.ArrivalConfig{Seed: l.seed, Horizon: horizon, BaseRatePerHour: 120000,
		DiurnalAmplitude: 0.3, SpikeStart: horizon / 4, SpikeDuration: horizon / 4, SpikeFactor: 2,
		LiveShare: 0.3, BatchShare: 0.4}
	var arrivals int
	ns, _ = measure(l.budget, func() { arrivals = len(wload.GenerateArrivals(acfg)) })
	l.put("workload.arrivals_per_s", perSec(float64(arrivals), ns), "1/s")
}

// --- fleetsim, tco, lint ----------------------------------------------

// entryPoints times the public experiment entry points once each. The
// two overload sweeps run a reduced configuration (two multipliers; two
// clusters over a shorter window) because their defaults take seven
// seconds between them; the rest run their defaults.
func (l *ledger) entryPoints() error {
	once := func(name string, fn func()) {
		t0 := time.Now()
		fn()
		l.put(name, time.Since(t0).Seconds(), "s")
	}
	good := fleetsim.DefaultGoodputConfig()
	good.Seed, good.Multipliers = l.seed, []float64{1, 2}
	loss := fleetsim.DefaultFleetLossConfig()
	loss.Seed, loss.Clusters, loss.ArrivalWindow, loss.DrainWindow = l.seed, 2, 20*time.Minute, time.Hour
	front := fleetsim.DefaultFrontierConfig()
	front.Seed = l.seed
	audit := fleetsim.DefaultAuditFrontierConfig()
	audit.Seed = l.seed
	churn := fleetsim.DefaultChurnConfig()
	churn.Seed = l.seed
	fig := fleetsim.DefaultConfig()
	tcoTime := 120 * time.Second
	if l.smoke {
		good.Multipliers, good.ArrivalWindow, good.DrainWindow = []float64{1}, 2*time.Minute, 5*time.Minute
		loss.ArrivalWindow, loss.DrainWindow = 2*time.Minute, 5*time.Minute
		front.ArrivalWindow, front.DrainWindow, front.TargetUtils = 5*time.Minute, 5*time.Minute, front.TargetUtils[:1]
		audit.Videos, audit.Budgets = audit.Burst, audit.Budgets[:1]
		fig.SimTime, tcoTime = time.Second, time.Second
	}
	once("fleetsim.goodput_s", func() { sink += int64(len(fleetsim.GoodputVsOfferedLoad(good))) })
	once("fleetsim.fleetloss_s", func() { sink += int64(len(fleetsim.SLOVsFleetLoss(loss))) })
	once("fleetsim.frontier_s", func() { sink += int64(len(fleetsim.CostVsSLOFrontier(front))) })
	once("fleetsim.audit_s", func() { sink += int64(len(fleetsim.EscapesVsAuditBudget(audit))) })
	once("fleetsim.churn_s", func() { sink += int64(len(fleetsim.CapacityUnderChurn(churn))) })
	once("fleetsim.figures_s", func() {
		mot, _ := fleetsim.Figure8Production(fig, 12)
		vp9, _ := fleetsim.Figure10Bitrate(fig, 12)
		sink += int64(len(mot) + len(vp9) + len(fleetsim.Figure9aUploadRamp(fig)) +
			len(fleetsim.Figure9bLiveRamp(fig)) + len(fleetsim.Figure9cDecoderUtil(fig)))
	})
	once("tco.table1_s", func() { sink += int64(len(tco.Table1(tco.DefaultConstants(), vcu.DefaultParams(), tcoTime))) })

	// The linter reads the module the benchmark was started in; it is
	// timed, not gated, here (scripts/check.sh gates it).
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		return err
	}
	cfg := lint.Config{Root: root}
	if l.smoke {
		cfg.Dirs = []string{"internal/sim"}
	}
	_, timing, err := lint.RunReport(cfg)
	if err != nil {
		return err
	}
	l.put("lint.total_ms", timing.TotalMS, "ms")
	return nil
}
