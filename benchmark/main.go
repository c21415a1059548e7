// Command benchmark is the repository's one benchmark: five named
// workloads, the end-to-end metrics a user of the system would see, a
// per-layer ledger and a traced run. BENCHMARK.json at the repository
// root declares the workloads and metrics; README.md in this directory
// says why each was chosen and how to read the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// options are the settings of one run of one workload.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool
	outDir  string
}

func (o options) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// workloadNames lists the workloads in the order a full run takes them.
var workloadNames = []string{"upload_ladder", "live_frames", "playback_decode", "park_overload", "park_steady"}

func newWorkload(name string, smoke bool) (workload, error) {
	switch name {
	case "upload_ladder":
		return newUploadWorkload(smoke), nil
	case "live_frames":
		return newLiveWorkload(smoke), nil
	case "playback_decode":
		return newPlaybackWorkload(smoke), nil
	case "park_overload":
		return newParkOverload(smoke), nil
	case "park_steady":
		return newParkSteady(smoke), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// endToEndUnits names every end-to-end metric and its unit; each
// workload reports all of them.
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"op_ms_p50":     "ms",
	"ops_per_s":     "1/s",
	"cpu_ms_per_op": "ms",
	"peak_rss_mb":   "MB",
	"good_share":    "share",
	"slo_share":     "share",
}

func main() {
	var o options
	names := flag.String("workload", "", "one workload: run it in this process and end with the JSON result line; several, comma-separated, or none for all: run each in a child process and write results.json")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds each workload measures for")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes, for the smoke test")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for results.json and the span files")
	cmp := flag.Bool("compare", false, "compare two results.json files given as arguments: base, then new")
	flag.Parse()
	o.trace = *trace != 0

	if *cmp {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results.json files: base, then new"))
		}
		mustCompare(flag.Arg(0), flag.Arg(1))
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}

	// The load is one process on one core. The sandbox this runs in
	// gives its second core only in bursts: two busy threads run at full
	// speed for about half a minute and at little more than half speed
	// after that, so anything timed on two cores drifts by 1.8× with the
	// machine's recent history. One core is never throttled and repeats
	// to a few percent. The ledger's speedup rows raise this briefly.
	runtime.GOMAXPROCS(1)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fatal(err)
	}

	list := workloadNames
	if *names != "" {
		list = strings.Split(*names, ",")
	}
	if len(list) > 1 || *names == "" {
		correct, err := runSuite(list, o)
		if err != nil {
			fatal(err)
		}
		if !correct {
			fatal(fmt.Errorf("a correctness check failed"))
		}
		return
	}

	w, err := newWorkload(list[0], o.smoke)
	if err != nil {
		fatal(err)
	}
	run := runUntraced
	if o.trace {
		run = runTraced
	}
	res, err := run(list[0], w, o)
	if err != nil {
		fatal(err)
	}
	if err := writeJSON(resultFile(o.outDir, list[0], o.trace), res); err != nil {
		fatal(err)
	}
	// A failed check is reported in the result line, not the exit code:
	// the caller reads "correct" and "failed".
	printResult(res)
}

func printResult(res *result) {
	for _, k := range slices.Sorted(maps.Keys(res.Metrics)) {
		m := res.Metrics[k]
		fmt.Printf("%s %s %v %s\n", res.Workload, k, m.Value, m.Unit)
	}
	for _, k := range slices.Sorted(maps.Keys(res.Exact)) {
		fmt.Printf("# %s exact %s %v\n", res.Workload, k, res.Exact[k])
	}
	for _, k := range []string{"samples", "op_ms_p95", "op_ms_max"} {
		if v, ok := res.Info[k]; ok {
			fmt.Printf("# %s info %s %v\n", res.Workload, k, v)
		}
	}
	for _, n := range res.Notes {
		fmt.Printf("# %s: %s\n", res.Workload, n)
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for k, m := range res.Metrics {
		line.Metrics[k] = mv{m.Value, m.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(buf))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
