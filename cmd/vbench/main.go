// Command vbench runs the paper's §4.1 benchmarking methodology: Table 1
// (throughput and perf/TCO for the four systems) and Figure 7 (rate-
// distortion curves and BD-rates for the vbench suite across the four
// encoders). Quality numbers come from real encodes with the Go codec;
// throughput comes from the discrete-event VCU model.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"openvcu/internal/metrics"
	"openvcu/internal/tco"
	"openvcu/internal/vbench"
	"openvcu/internal/vcu"
)

func main() {
	table1 := flag.Bool("table1", false, "print only Table 1")
	rd := flag.Bool("rd", false, "print only the Figure 7 RD data")
	scale := flag.Int("scale", 16, "clip downscale factor for quality runs")
	frames := flag.Int("frames", 12, "frames per clip for quality runs (12: the configuration EXPERIMENTS.md records)")
	clips := flag.String("clips", "presentation,bike,holi", "comma-separated clip subset (or 'all')")
	flag.Parse()
	all := !*table1 && !*rd

	if all || *table1 {
		printTable1()
	}
	if all || *rd {
		printRD(*clips, *scale, *frames)
	}
}

func printTable1() {
	fmt.Println("== Table 1: offline two-pass single output (SOT) throughput ==")
	fmt.Printf("%-12s %12s %12s %12s %12s\n", "System", "H.264 Mpix/s", "VP9 Mpix/s", "H.264 p/TCO", "VP9 p/TCO")
	rows := tco.Table1(tco.DefaultConstants(), vcu.DefaultParams(), 120*time.Second)
	for _, r := range rows {
		vp9t, vp9p := "-", "-"
		if r.ThroughputVP9 > 0 {
			vp9t = fmt.Sprintf("%.0f", r.ThroughputVP9)
			vp9p = fmt.Sprintf("%.1fx", r.PerfTCOVP9)
		}
		fmt.Printf("%-12s %12.0f %12s %11.1fx %12s\n",
			r.System, r.ThroughputH264, vp9t, r.PerfTCOH264, vp9p)
	}
	pw := tco.PerfWatt(tco.DefaultConstants(), vcu.DefaultParams(), 120*time.Second)
	fmt.Printf("perf/watt vs CPU: %.1fx (SOT H.264, paper 6.7x), %.1fx (MOT VP9, paper 68.9x)\n\n",
		pw.SOTH264Ratio, pw.MOTVP9Ratio)
}

func printRD(clipList string, scale, frames int) {
	var selected []vbench.Clip
	if clipList == "all" {
		selected = vbench.Suite
	} else {
		for _, name := range strings.Split(clipList, ",") {
			c, ok := vbench.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown clip %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, c)
		}
	}
	fmt.Printf("== Figure 7: RD curves (scale 1/%d, %d frames) ==\n", scale, frames)
	curves := map[string]map[string][]metrics.RDPoint{} // clip -> encoder -> points
	for _, clip := range selected {
		curves[clip.Name] = map[string][]metrics.RDPoint{}
		for _, eut := range vbench.StandardEncoders {
			curve, err := vbench.RunRD(clip, eut, scale, frames)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			curves[clip.Name][eut.Label] = curve.Points
			for _, p := range curve.Points {
				fmt.Printf("%-14s %-12s %9.0f bps  %6.2f dB\n", clip.Name, eut.Label, p.BitsPerSecond, p.PSNR)
			}
		}
	}
	fmt.Println("\n== BD-rate summary (negative = fewer bits at same quality) ==")
	report := func(label, ref, test string, paper string) {
		var sum float64
		var n int
		for _, clip := range selected {
			bd, err := metrics.BDRate(curves[clip.Name][ref], curves[clip.Name][test])
			if err != nil {
				continue
			}
			sum += bd
			n++
		}
		if n > 0 {
			fmt.Printf("%-28s %+7.1f%%   (paper: %s)\n", label, sum/float64(n), paper)
		}
	}
	report("VCU-VP9 vs soft-H.264", "libx264-sw", "vcu-vp9", "-30%")
	report("VCU-H.264 vs libx264", "libx264-sw", "vcu-h264", "+11.5% at launch")
	report("VCU-VP9 vs libvpx", "libvpx-sw", "vcu-vp9", "+18% at launch")
}
