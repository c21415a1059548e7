package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workload is one of the benchmark's named input sets. The runner owns
// the clock; the workload owns its inputs and its checks.
type workload interface {
	// setup derives every input from the seed. The runner calls it
	// several times to time it; each call does the same work and leaves
	// the workload ready to run.
	setup(seed uint64) error
	// warm runs a little untimed work so pools and caches exist.
	warm() error
	// run executes operations until the deadline has passed, finishing
	// the unit it stops on, and times each through rec. With a non-nil
	// tracer it also records a span around every call into a layer.
	run(deadline time.Time, rec *recorder, tr *tracer) error
	// verify checks, outside the timed region, the outputs run kept.
	verify(rec *recorder) verdict
}

// verdict is what a workload's checks found.
type verdict struct {
	// attempted and failed count operations (a video, frame, pass or
	// simulation repetition); an operation failing any check is failed.
	attempted, failed int
	// slo is the share of operations inside the workload's latency
	// limit (for the parks, the simulated live SLO attainment); a failed
	// operation misses it. good is the share of attempted work that was
	// completed usefully (for the parks, goodput over offered load).
	slo, good float64
	// exact holds output statistics that depend only on the seed:
	// quality, bitrate, simulated-time results and counts.
	exact map[string]float64
	// digest fingerprints the outputs; equal seeds give equal digests.
	digest string
	notes  []string
}

// finish caps failures at the operations attempted and fills the two
// shares for a workload whose operations are timed on the host clock:
// an operation is good unless it failed, and meets the SLO when it is
// good and took at most limitMs.
func (v *verdict) finish(rec *recorder, limitMs float64) {
	if v.failed > v.attempted {
		v.failed = v.attempted
	}
	if v.attempted == 0 {
		return
	}
	within := 0
	for _, s := range rec.samples {
		if float64(s.wall)/1e6/s.work <= limitMs {
			within += int(s.work) // a sample stands for that many operations
		}
	}
	if within > v.attempted-v.failed {
		within = v.attempted - v.failed
	}
	v.good = float64(v.attempted-v.failed) / float64(v.attempted)
	v.slo = float64(within) / float64(v.attempted)
}

// sample is one timed stretch. work is how many operations it counts
// for: 1; 4 for a round of uploads; for a park repetition the thousands
// of steps it completed, so that seeds with a few more or fewer arrivals
// compare.
type sample struct {
	wall, cpu time.Duration
	work      float64
}

type recorder struct{ samples []sample }

// op times fn, which returns the work it did. An fn that reports zero
// work failed before finishing and leaves no sample.
func (r *recorder) op(fn func() float64) {
	c0, t0 := cpuTime(), time.Now()
	work := fn()
	wall := time.Since(t0)
	if work > 0 {
		r.samples = append(r.samples, sample{wall: wall, cpu: cpuTime() - c0, work: work})
	}
}

func (r *recorder) totals() (wall, cpu time.Duration, work float64) {
	for _, s := range r.samples {
		wall += s.wall
		cpu += s.cpu
		work += s.work
	}
	return
}

// opMillis returns each sample's wall milliseconds per operation.
func (r *recorder) opMillis() []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = float64(s.wall) / 1e6 / s.work
	}
	return out
}

// rusage is the process's resource usage so far.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	return ru
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos) // pos is never negative
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// metric is one reported number. Min and Max are the metric computed on
// each segment of the timed window, the run's own repetition spread;
// -compare reads them to tell a regression from noise.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	N     int     `json:"n,omitempty"`
}

// maxSegments is how many contiguous pieces the timed window is cut into.
const maxSegments = 9

// segments cuts the timed samples into contiguous pieces: maxSegments of
// them, or one per sample when there are fewer samples than that.
func segments(samples []sample) [][]sample {
	k := min(len(samples), maxSegments)
	var out [][]sample
	for i := 0; i < k; i++ {
		out = append(out, samples[i*len(samples)/k:(i+1)*len(samples)/k])
	}
	return out
}

// timingMetrics computes the end-to-end timing metrics. Each is taken on
// every segment of the timed window (the median operation, operations
// over wall time, CPU time over operations), and the quiet quartile of
// the segments is reported: the 25th percentile of a time, the 75th of a
// rate. The machine is shared, and whatever else runs on it only ever
// slows a segment down, never speeds one up, so the quiet segments are
// the ones that measure the program; a change to the program moves them
// all. With nine segments, six can be disturbed before a metric moves.
func timingMetrics(rec *recorder) map[string]metric {
	var rate, cpu, p50 []float64
	for _, seg := range segments(rec.samples) {
		r := recorder{samples: seg}
		wall, c, work := r.totals()
		rate = append(rate, work/wall.Seconds())
		cpu = append(cpu, float64(c)/1e6/work)
		p50 = append(p50, median(r.opMillis()))
	}
	mk := func(name string, quiet float64, per []float64) metric {
		return metric{Value: percentile(per, quiet), Unit: endToEndUnits[name],
			Min: percentile(per, 0), Max: percentile(per, 100), N: len(rec.samples)}
	}
	return map[string]metric{
		"op_ms_p50":     mk("op_ms_p50", 25, p50),
		"ops_per_s":     mk("ops_per_s", 75, rate),
		"cpu_ms_per_op": mk("cpu_ms_per_op", 25, cpu),
	}
}

// result is everything one run of one workload produced.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Exact are the seed-determined output statistics, and Digest the
	// fingerprint of the outputs: both must repeat exactly per seed.
	Exact  map[string]float64 `json:"exact,omitempty"`
	Digest string             `json:"digest,omitempty"`
	// Info are measured numbers reported beside the declared metrics.
	Info  map[string]float64 `json:"info,omitempty"`
	Notes []string           `json:"notes,omitempty"`
}

// A run sets up at least minSetupRuns times and reports the median as
// setup_s. A set-up of a few milliseconds is repeated until setupBudget
// is spent (at most maxSetupRuns times), because three samples of
// something that short are mostly noise.
const (
	minSetupRuns = 3
	maxSetupRuns = 15
	setupBudget  = 500 * time.Millisecond
)

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(name string, w workload, o options) (*result, error) {
	var setups []float64
	for start := time.Now(); len(setups) < minSetupRuns ||
		(len(setups) < maxSetupRuns && time.Since(start) < setupBudget); {
		t0 := time.Now()
		if err := w.setup(o.seed); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		// Collect each set-up's garbage before the next one, untimed. Left
		// to pile up, a dozen short set-ups outgrow the timed region, and
		// peak_rss_mb reads how far the collector let them get.
		runtime.GC()
	}
	if err := w.warm(); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", name, err)
	}
	runtime.GC() // and the warm-up's
	rec := &recorder{}
	if err := w.run(time.Now().Add(o.duration()), rec, nil); err != nil {
		return nil, fmt.Errorf("%s: run: %w", name, err)
	}
	rss := peakRSSMB()
	if len(rec.samples) == 0 {
		return nil, fmt.Errorf("%s: no operation completed", name)
	}
	v := w.verify(rec)
	res := newResult(name, o, v)
	for k, m := range timingMetrics(rec) {
		res.Metrics[k] = m
	}
	// The first set-up also pays for cold caches; the median absorbs it,
	// and the spread is taken over the others.
	res.Metrics["setup_s"] = metric{Value: median(setups), Unit: endToEndUnits["setup_s"],
		Min: percentile(setups[1:], 0), Max: percentile(setups[1:], 100), N: len(setups)}
	for name, value := range map[string]float64{"peak_rss_mb": rss, "slo_share": v.slo, "good_share": v.good} {
		res.Metrics[name] = metric{Value: value, Unit: endToEndUnits[name], Min: value, Max: value, N: v.attempted}
	}
	ms := rec.opMillis()
	res.Info = map[string]float64{"samples": float64(len(ms)), "op_ms_p95": percentile(ms, 95), "op_ms_max": percentile(ms, 100)}
	return res, nil
}

func newResult(name string, o options, v verdict) *result {
	return &result{
		Workload: name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Correct: v.failed == 0 && v.attempted > 0, Attempted: v.attempted, Failed: v.failed,
		Metrics: map[string]metric{}, Exact: v.exact, Digest: v.digest, Notes: v.notes,
	}
}
