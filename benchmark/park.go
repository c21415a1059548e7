package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"openvcu/internal/cluster"
	"openvcu/internal/codec"
	"openvcu/internal/sched"
	"openvcu/internal/vcu"
	"openvcu/internal/video"
	wload "openvcu/internal/workload"
)

// parkWorkload drives the modelled control plane: a seeded arrival trace
// of live, upload and batch videos is submitted to a cluster on the sim
// clock and run to a horizon. Simulated time is what the modelled park
// would take; host time is what the simulator takes to say so. The
// timed operation is one repetition of Eng.RunUntil, counted as the
// thousands of steps it completed, so op_ms_p50 is host milliseconds
// per thousand simulated steps.
type parkWorkload struct {
	name     string
	config   func(seed uint64) cluster.Config
	arrivals wload.ArrivalConfig
	drain    time.Duration

	seed  uint64
	trace []wload.Arrival
	next  *parkRun   // prepared, not yet run
	runs  []*parkRun // completed repetitions
}

// parkRun is one repetition: a fresh cluster with every arrival
// scheduled, and what it measured once run. The cluster is dropped after
// the run so that memory does not grow with the repetition count.
type parkRun struct {
	c         *cluster.Cluster
	stats     cluster.Stats
	queued    int       // steps still queued at the horizon
	transcode int       // transcode steps submitted
	uploadSec []float64 // arrival → Graph.OnDone on the sim clock, upload class
	digest    string
}

// parkSpec maps an arrival to the video shapes fleetsim's overload
// experiments use: 1080p MOT, 600-frame uploads and batch re-encodes,
// 300-frame live streams, 150-frame chunks.
func parkSpec(a wload.Arrival) cluster.VideoSpec {
	spec := cluster.VideoSpec{
		ID: a.ID, Resolution: video.Res1080p, FPS: 30, Frames: 600, ChunkFrames: 150,
		Profile: codec.VP9Class, Mode: vcu.EncodeTwoPassOffline, MOT: true,
	}
	switch a.Class {
	case wload.ArriveLive:
		spec.Frames, spec.Mode, spec.Live = 300, vcu.EncodeOnePassLowLatency, true
	case wload.ArriveBatch:
		spec.Batch = true
	}
	return spec
}

// newParkOverload is the control plane saturated with every loop armed:
// twelve small workers, bounded-queue admission, brownout, autoscaler,
// auditor and hedging, under a diurnal trace with a 2× spike. The queue
// sits at its bound, so cost is in dispatch rescanning it.
func newParkOverload(smoke bool) *parkWorkload {
	p := &parkWorkload{
		name: "park_overload",
		config: func(seed uint64) cluster.Config {
			cfg := cluster.DefaultConfig(6)
			cfg.Params.CardsPerTray, cfg.Params.TraysPerHost, cfg.Params.EncoderCores = 1, 1, 2
			cfg.Overload = cluster.DefaultOverloadConfig()
			cfg.Autoscale = cluster.DefaultAutoscaleConfig()
			cfg.Autoscale.MinWorkers, cfg.Autoscale.InitialWorkers = 2, 3
			cfg.Audit = cluster.DefaultAuditConfig()
			cfg.HedgeMultiplier = 3
			cfg.Seed = seed
			return cfg
		},
		arrivals: wload.ArrivalConfig{
			Horizon: 10 * time.Minute, BaseRatePerHour: 9000,
			DiurnalAmplitude: 0.3, DiurnalPeriod: time.Hour,
			SpikeStart: 150 * time.Second, SpikeDuration: 150 * time.Second, SpikeFactor: 2,
			LiveShare: 0.3, BatchShare: 0.4,
		},
		drain: 30 * time.Minute,
	}
	if smoke {
		p.arrivals.Horizon, p.arrivals.SpikeStart, p.arrivals.SpikeDuration = 3*time.Minute, time.Minute, time.Minute
		p.drain = 10 * time.Minute
	}
	return p
}

// newParkSteady is the control plane at scale and far from saturation:
// 2000 workers, overload control armed but never triggered, autoscaler
// and auditor off, flat arrivals. The queue stays short, so cost is in
// placement over many workers, resource-vector churn and sim events.
func newParkSteady(smoke bool) *parkWorkload {
	p := &parkWorkload{
		name: "park_steady",
		config: func(seed uint64) cluster.Config {
			cfg := cluster.DefaultConfig(100)
			cfg.Overload = cluster.DefaultOverloadConfig()
			cfg.Seed = seed
			return cfg
		},
		arrivals: wload.ArrivalConfig{
			Horizon: 5 * time.Minute, BaseRatePerHour: 120000,
			LiveShare: 0.3, BatchShare: 0.4,
		},
		drain: 10 * time.Minute,
	}
	if smoke {
		p.arrivals.Horizon, p.drain = 10*time.Second, 5*time.Minute
	}
	return p
}

func (p *parkWorkload) setup(seed uint64) error {
	p.seed = seed
	acfg := p.arrivals
	acfg.Seed = seed
	p.trace = wload.GenerateArrivals(acfg)
	if len(p.trace) == 0 {
		return fmt.Errorf("%s: empty arrival trace", p.name)
	}
	p.next, p.runs = p.prepare(nil), nil
	return nil
}

// prepare builds a fresh cluster, expands every arrival into its work
// graph and schedules the submissions. Graphs and clusters are consumed
// by a repetition, so each one gets its own.
func (p *parkWorkload) prepare(tr *tracer) *parkRun {
	cfg := p.config(p.seed)
	sp := tr.begin("cluster.new", -1)
	r := &parkRun{c: cluster.New(cfg)}
	tr.end(sp)
	target := cfg.StepTargetSeconds
	for _, a := range p.trace {
		a := a
		sp := tr.begin("cluster.build_graph", a.ID)
		g := cluster.BuildGraph(parkSpec(a), target)
		tr.end(sp)
		for _, s := range g.Steps {
			if s.Kind == cluster.StepTranscode {
				r.transcode++
			}
		}
		if a.Class == wload.ArriveUpload {
			g.OnDone = func(*cluster.Graph) {
				r.uploadSec = append(r.uploadSec, (r.c.Eng.Now() - a.At).Seconds())
			}
		}
		r.c.Eng.Schedule(a.At, func() {
			sp := tr.begin("cluster.submit", a.ID)
			r.c.Submit(g)
			tr.end(sp)
		})
	}
	return r
}

func (p *parkWorkload) warm() error { return nil }

func (p *parkWorkload) run(deadline time.Time, rec *recorder, tr *tracer) error {
	for {
		root := tr.begin("park.repetition", len(p.runs))
		r := p.next
		if r == nil || tr != nil {
			r = p.prepare(tr) // a traced repetition records its own preparation
		}
		p.next = nil
		// Start every repetition from a collected heap, so that its peak
		// memory is its own and not a matter of where the collector was.
		runtime.GC()
		rec.op(func() float64 {
			sp := tr.begin("cluster.run", len(p.runs))
			r.c.Eng.RunUntil(p.arrivals.Horizon + p.drain)
			tr.end(sp)
			return float64(r.c.Stats.StepsCompleted) / 1000
		})
		if len(p.runs) > 0 {
			r.uploadSec = nil // only the first repetition's are reported
		}
		tr.end(root)
		r.stats, r.queued, r.c = r.c.Stats, r.c.QueueLen(), nil
		r.digest = fmt.Sprintf("%+v", r.stats)
		p.runs = append(p.runs, r)
		if !time.Now().Before(deadline) {
			return nil
		}
	}
}

func (p *parkWorkload) verify(rec *recorder) verdict {
	v := verdict{attempted: len(p.runs), exact: map[string]float64{}}
	first := p.runs[0]
	for i, r := range p.runs {
		var settled int64
		for _, cs := range r.stats.Classes {
			settled += cs.Completed + cs.Shed + cs.DeadlineMissed
		}
		switch {
		case r.digest != first.digest:
			v.failed++
			v.notes = append(v.notes, fmt.Sprintf("repetition %d: Stats differ from repetition 0", i))
		case r.queued != 0 || settled != int64(r.transcode):
			v.failed++
			v.notes = append(v.notes, fmt.Sprintf("repetition %d: %d of %d transcode steps settled, %d still queued",
				i, settled, r.transcode, r.queued))
		}
	}
	st := first.stats
	var met, shed, offered int64
	for _, cs := range st.Classes {
		met += cs.SLOMet
		shed += cs.Shed
		offered += cs.Admitted + cs.Shed
	}
	v.good = float64(met) / float64(offered)
	v.slo = st.SLOAttainment(sched.PriorityCritical)
	v.exact["sim_live_slo"] = v.slo
	v.exact["sim_shed_fraction"] = float64(shed) / float64(offered)
	v.exact["sim_upload_p50_s"] = percentile(first.uploadSec, 50)
	v.exact["sim_upload_p99_s"] = percentile(first.uploadSec, 99)
	for k, n := range clusterCounts(st) {
		v.exact[k] = float64(n)
	}
	h := fnv.New64a()
	h.Write([]byte(first.digest))
	v.digest = fmt.Sprintf("%016x", h.Sum64())
	return v
}

// clusterCounts are the Stats counts the per-layer ledger reports: they
// repeat exactly per seed, so a simulator-speed change must not move
// them, and they explain any change in the simulated statistics.
func clusterCounts(st cluster.Stats) map[string]int64 {
	return map[string]int64{
		"cluster.steps_completed":   st.StepsCompleted,
		"cluster.steps_shed":        st.Classes[0].Shed + st.Classes[1].Shed + st.Classes[2].Shed,
		"cluster.retries":           st.Retries,
		"cluster.queue_high_water":  st.QueueHighWater,
		"cluster.brownout_moves":    st.BrownoutUps + st.BrownoutDowns,
		"cluster.autoscale_resizes": st.Autoscale.ScaleUps + st.Autoscale.ScaleDowns,
		"cluster.audited":           st.Audit.Audited,
		"cluster.hedges_launched":   st.HedgesLaunched,
	}
}
