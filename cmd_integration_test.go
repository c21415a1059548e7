// Integration smoke tests: build every command and example and exercise
// the command-line surface end to end (the paper system's operator
// tooling), verifying the key reproduced numbers appear in the output.
package openvcu_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles a main package into the test temp dir once.
func buildTool(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, "./"+pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out)
}

func TestCmdBalance(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	out := runTool(t, buildTool(t, "cmd/balance"))
	for _, want := range []string{
		"Table 2", "42", "300 Gbps", "27-37", "~700", "30 VCUs/host",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("balance output missing %q", want)
		}
	}
}

func TestCmdFleetsim(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	out := runTool(t, buildTool(t, "cmd/fleetsim"), "-fig9c", "-fig10")
	if !strings.Contains(out, "98.0%") {
		t.Errorf("fleetsim missing pre-optimization decoder utilization:\n%s", out)
	}
	if !strings.Contains(out, "Figure 10") {
		t.Error("fleetsim missing Figure 10 section")
	}
}

func TestCmdVbenchTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	out := runTool(t, buildTool(t, "cmd/vbench"), "-table1")
	for _, want := range []string{"Skylake", "20xVCU", "714"} {
		if !strings.Contains(out, want) {
			t.Errorf("vbench table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestCmdVcutranscodePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	bin := buildTool(t, "cmd/vcutranscode")
	dir := t.TempDir()
	// Encode a synthetic clip to OVCU + Y4M.
	out := runTool(t, bin, "-clip", "funny", "-frames", "4", "-scale", "16",
		"-o", dir, "-y4mout")
	if !strings.Contains(out, "PSNR") {
		t.Fatalf("no PSNR in transcode output:\n%s", out)
	}
	// Re-transcode the OVCU output to H.264 (decode path).
	var ovcu string
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ovcu") && strings.Contains(e.Name(), "src") {
			ovcu = filepath.Join(dir, e.Name())
		}
	}
	if ovcu == "" {
		t.Fatal("no .ovcu produced")
	}
	out2 := runTool(t, bin, "-in", ovcu, "-profile", "h264", "-mode", "sot", "-o", dir)
	if !strings.Contains(out2, "PSNR") {
		t.Fatalf("ovcu re-transcode failed:\n%s", out2)
	}
	// And transcode the Y4M too.
	var y4m string
	entries, _ = os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".y4m") {
			y4m = filepath.Join(dir, e.Name())
			break
		}
	}
	if y4m == "" {
		t.Fatal("no .y4m produced")
	}
	out3 := runTool(t, bin, "-in", y4m, "-mode", "sot", "-tiles", "2", "-o", dir)
	if !strings.Contains(out3, "PSNR") {
		t.Fatalf("y4m transcode failed:\n%s", out3)
	}
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	for _, ex := range []string{"quickstart", "livestream", "cloudgaming"} {
		bin := buildTool(t, "examples/"+ex)
		out := runTool(t, bin)
		if len(out) < 100 {
			t.Errorf("example %s produced almost no output", ex)
		}
	}

	// The failure drill is the §4.4 table's producer: the mitigations
	// must leave fewer corrupted videos than the unmitigated run.
	out := runTool(t, buildTool(t, "examples/failuredrill"))
	var corrupted []int
	for _, line := range strings.Split(out, "\n") {
		var n, total int
		if _, err := fmt.Sscanf(line, "videos with undetected corruption: %d/%d", &n, &total); err == nil {
			corrupted = append(corrupted, n)
		}
	}
	if len(corrupted) != 2 || corrupted[0] <= corrupted[1] {
		t.Errorf("failuredrill corrupted videos (unmitigated, mitigated) = %v, want the first larger:\n%s", corrupted, out)
	}
}
