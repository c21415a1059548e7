package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// A traced run reports the per-layer metrics: the ledger's rows, and the
// rows below, which come from the spans and outputs of the traced
// workload itself. A row whose spans the workload does not produce (the
// upload stages on a park, the cluster counts on a pixel workload) is
// reported as zero, so that every traced run prints every row.

// stageShares maps a span name to the row its self time is reported
// under, as a share of the traced operations' wall time.
var stageShares = map[string]string{
	"container.demux":         "upload.demux_share",
	"transcode.decode_source": "upload.decode_source_share",
	"transcode.ladder":        "upload.ladder_share",
	"container.mux":           "upload.mux_share",
	"container.index_verify":  "upload.index_verify_share",
	"codec.decode_verify":     "upload.decode_verify_share",
	"container.open_indexed":  "playback.container_share",
	"container.read_chunk":    "playback.container_share",
	"codec.decode":            "playback.decode_share",
}

// clusterSpanRows are measured from the spans around the benchmark's own
// calls into the cluster; only the parks make those calls.
var clusterSpanRows = map[string]string{
	"cluster.build_graph_us":    "us",
	"cluster.submit_us_p50":     "us",
	"cluster.submit_us_p99":     "us",
	"cluster.run_excl_submit_s": "s",
	"cluster.allocs_per_step":   "count",
}

// outputRows are the seed-determined output statistics a workload's
// checks compute (verdict.exact). They are what the end-to-end timing
// metrics must not be bought with: quality, bitrate, simulated-time
// results and the cluster's own counts.
var outputRows = map[string]string{
	"upload_psnr_db":            "dB",
	"upload_bits_per_pixel":     "bit/pix",
	"live_psnr_db":              "dB",
	"live_bits_per_pixel":       "bit/pix",
	"playback_psnr_db":          "dB",
	"sim_live_slo":              "share",
	"sim_shed_fraction":         "share",
	"sim_upload_p50_s":          "s",
	"sim_upload_p99_s":          "s",
	"cluster.steps_completed":   "count",
	"cluster.steps_shed":        "count",
	"cluster.retries":           "count",
	"cluster.queue_high_water":  "count",
	"cluster.brownout_moves":    "count",
	"cluster.autoscale_resizes": "count",
	"cluster.audited":           "count",
	"cluster.hedges_launched":   "count",
}

// runTraced measures the per-layer metrics of one workload: a slice of
// the workload with spans on, then the ledger.
func runTraced(name string, w workload, o options) (*result, error) {
	if err := w.setup(o.seed); err != nil {
		return nil, fmt.Errorf("%s: setup: %w", name, err)
	}
	if err := w.warm(); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", name, err)
	}
	tr := newTracer()
	traced := &recorder{}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	if err := w.run(time.Now().Add(o.duration()*3/10), traced, tr); err != nil {
		return nil, fmt.Errorf("%s: traced run: %w", name, err)
	}
	runtime.ReadMemStats(&ms)
	mallocs = ms.Mallocs - mallocs
	if len(traced.samples) == 0 {
		return nil, fmt.Errorf("%s: no operation completed", name)
	}
	v := w.verify(traced)
	res := newResult(name, o, v)
	if err := tr.write(filepath.Join(o.outDir, "trace-"+name+".json")); err != nil {
		return nil, err
	}

	put := func(k string, val float64, unit string) { res.Metrics[k] = metric{Value: val, Unit: unit} }
	tracedWall, _, work := traced.totals()
	put("trace.spans", float64(len(tr.spans)), "count")
	// A traced and an untraced run differ by less than their own noise,
	// so the overhead is the spans recorded times what one span costs.
	put("trace.overhead_pct", float64(len(tr.spans))*spanCost().Seconds()/tracedWall.Seconds()*100, "%")
	put("trace.allocs_per_op", float64(mallocs)/work, "count")
	put("trace.op_ms_p95", percentile(traced.opMillis(), 95), "ms")

	// Stage self times, as shares of the traced operations' wall time.
	// The operations are the root spans, except on the parks, whose
	// timed operation (cluster.run) sits under the repetition's span.
	for _, row := range stageShares {
		put(row, 0, "share")
	}
	self := tr.selfTimes()
	for spanName, row := range stageShares {
		m := res.Metrics[row]
		m.Value += self[spanName].Seconds() / tracedWall.Seconds()
		res.Metrics[row] = m
	}
	for k, unit := range clusterSpanRows {
		put(k, 0, unit)
	}
	covered := tr.rootTime()
	if runs := tr.durations("cluster.run"); len(runs) > 0 {
		covered = 0
		for _, d := range runs {
			covered += time.Duration(d)
		}
		put("cluster.build_graph_us", median(tr.durations("cluster.build_graph"))/1e3, "us")
		submits := tr.durations("cluster.submit")
		put("cluster.submit_us_p50", percentile(submits, 50)/1e3, "us")
		put("cluster.submit_us_p99", percentile(submits, 99)/1e3, "us")
		put("cluster.run_excl_submit_s", self["cluster.run"].Seconds()/float64(len(runs)), "s")
		put("cluster.allocs_per_step", float64(mallocs)/work/1000, "count")
	}
	put("trace.root_coverage", covered.Seconds()/tracedWall.Seconds(), "share")

	for k, unit := range outputRows {
		put(k, v.exact[k], unit)
	}
	rows, err := runLedger(o.seed, o.duration()*6/1000, o.smoke)
	if err != nil {
		return nil, fmt.Errorf("%s: ledger: %w", name, err)
	}
	for k, m := range rows {
		res.Metrics[k] = m
	}
	return res, nil
}

// spanCost measures what recording one span costs.
func spanCost() time.Duration {
	const n = 20000
	tr := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tr.end(tr.begin("calibrate", i))
	}
	return time.Since(t0) / n
}
