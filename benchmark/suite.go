package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// fingerprint says where and on what a set of numbers was taken; numbers
// from different fingerprints are not comparable.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown"}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					fp.Commit += "+modified"
				}
			}
		}
	}
	return fp
}

// suiteResults is results.json: one untraced and one traced run of each
// workload, in the order they ran.
type suiteResults struct {
	Machine   fingerprint      `json:"machine"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name     string  `json:"name"`
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer"`
}

// resultFile is where a run of one workload leaves its full result for
// the suite to collect.
func resultFile(outDir, name string, traced bool) string {
	kind := "end_to_end"
	if traced {
		kind = "per_layer"
	}
	return filepath.Join(outDir, "run-"+name+"-"+kind+".json")
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runSuite runs each named workload twice in child processes of this
// program, untraced then traced, so that CPU time and peak memory are
// per workload, and collects results.json. It reports whether every
// run's outputs were correct.
func runSuite(names []string, o options) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	out := suiteResults{Machine: machineFingerprint(), Seed: o.seed, Seconds: o.seconds}
	correct := true
	for _, name := range names {
		wr := workloadResult{Name: name, EndToEnd: &result{}, PerLayer: &result{}}
		for _, traced := range []bool{false, true} {
			args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-out", o.outDir, "-trace", "0"}
			into := wr.EndToEnd
			if traced {
				args[len(args)-1], into = "1", wr.PerLayer
			}
			if o.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			// The child's lines are already "workload metric value unit";
			// its closing JSON object is for single-workload callers.
			for _, line := range strings.Split(strings.TrimRight(string(stdout), "\n"), "\n") {
				if !strings.HasPrefix(line, "{") {
					fmt.Println(line)
				}
			}
			if err != nil {
				return false, fmt.Errorf("%s (trace %v): %w", name, traced, err)
			}
			if err := readJSON(resultFile(o.outDir, name, traced), into); err != nil {
				return false, err
			}
			correct = correct && into.Correct
		}
		out.Workloads = append(out.Workloads, wr)
	}
	path := filepath.Join(o.outDir, "results.json")
	if err := writeJSON(path, out); err != nil {
		return false, err
	}
	fmt.Printf("# wrote %s (%s, %d cores, GOMAXPROCS %d, %s, commit %s)\n", path,
		out.Machine.CPU, out.Machine.NumCPU, out.Machine.GOMAXPROCS, out.Machine.GoVersion, out.Machine.Commit)
	return correct, nil
}
