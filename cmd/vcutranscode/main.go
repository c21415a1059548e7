// Command vcutranscode is the CLI transcoder: it encodes a procedural
// vbench clip (or transcodes an existing .ovcu stream) into one or more
// output variants, writing OVCU container files and reporting bitrate,
// PSNR and throughput — a miniature of the paper's transcoding service.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"openvcu/internal/codec"
	"openvcu/internal/codec/rc"
	"openvcu/internal/container"
	"openvcu/internal/transcode"
	"openvcu/internal/vbench"
	"openvcu/internal/video"
)

func main() {
	clipName := flag.String("clip", "bike", "vbench clip to use as source")
	inPath := flag.String("in", "", "input file, .y4m or .ovcu (overrides -clip/-scale/-frames)")
	y4mOut := flag.Bool("y4mout", false, "also write decoded outputs as .y4m")
	profile := flag.String("profile", "vp9", "output codec profile: h264 | vp9 | av1")
	mode := flag.String("mode", "mot", "transcode mode: mot | sot")
	scale := flag.Int("scale", 16, "source downscale factor")
	frames := flag.Int("frames", 8, "frames to encode")
	bpp := flag.Float64("bpp", 0.08, "target bits per pixel")
	hardware := flag.Bool("hardware", false, "apply VCU pipeline restrictions")
	tiles := flag.Int("tiles", 1, "tile columns (1, 2, 4, 8): parallel encode")
	workers := flag.Int("workers", 0, "goroutines an encoder runs tiles and filter stripes on (0 = all cores, 1 = inline)")
	outDir := flag.String("o", ".", "output directory for .ovcu files")
	verify := flag.Bool("verify", true, "decode outputs and report PSNR")
	flag.Parse()

	prof := codec.VP9Class
	switch {
	case strings.EqualFold(*profile, "h264"):
		prof = codec.H264Class
	case strings.EqualFold(*profile, "av1"):
		prof = codec.AV1Class
	}
	var src []*video.Frame
	fps := 30
	name := *clipName
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			fail("open %s: %v", *inPath, err)
		}
		if strings.EqualFold(filepath.Ext(*inPath), ".ovcu") {
			// True transcode: decode an encoded stream as the source.
			info, pkts, err := container.NewReader(f).ReadAll()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fail("%s: %v", *inPath, err)
			}
			src, err = codec.DecodeSequence(pkts)
			if err != nil {
				fail("%s: decode: %v", *inPath, err)
			}
			fps = info.FPS
		} else {
			r, err := video.NewY4MReader(f)
			if err != nil {
				fail("%s: %v", *inPath, err)
			}
			src, err = r.ReadAll()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fail("%s: %v", *inPath, err)
			}
			fps = r.FPS()
		}
		if len(src) == 0 {
			fail("%s: no frames", *inPath)
		}
		name = strings.TrimSuffix(filepath.Base(*inPath), filepath.Ext(*inPath))
	} else {
		clip, ok := vbench.ByName(*clipName)
		if !ok {
			fail("unknown clip %q (see internal/vbench for the suite)", *clipName)
		}
		srcCfg := clip.SourceConfig(*scale, *frames)
		src = video.NewSource(srcCfg).Frames(*frames)
		fps = clip.FPS
	}
	inRes := video.Resolution{Name: "src", Width: src[0].Width, Height: src[0].Height}

	// Build the output ladder: full ladder for MOT, top rung for SOT.
	specs := []transcode.OutputSpec{{
		Name: inRes.Name, Resolution: inRes, Profile: prof, Hardware: *hardware, TileColumns: *tiles,
		Workers: *workers,
		RC: rc.Config{Mode: rc.ModeTwoPassOffline,
			TargetBitrate: int(*bpp * float64(inRes.Pixels()) * float64(fps))},
	}}
	if strings.EqualFold(*mode, "mot") {
		half := video.Resolution{Name: "half", Width: inRes.Width / 2 / 16 * 16, Height: inRes.Height / 2 / 16 * 16}
		if half.Width >= 32 && half.Height >= 32 {
			specs = append(specs, transcode.OutputSpec{
				Name: half.Name, Resolution: half, Profile: prof, Hardware: *hardware,
				Workers: *workers,
				RC: rc.Config{Mode: rc.ModeTwoPassOffline,
					TargetBitrate: int(*bpp * float64(half.Pixels()) * float64(fps))},
			})
		}
	}

	start := time.Now()
	res, err := transcode.MOT(src, fps, specs)
	if err != nil {
		fail("transcode: %v", err)
	}
	wall := time.Since(start)

	var outPixels int64
	for _, out := range res.Outputs {
		path := filepath.Join(*outDir, fmt.Sprintf("%s-%s-%s.ovcu", name, out.Spec.Name, prof))
		if err := writeStream(path, out, fps, len(src)); err != nil {
			fail("write %s: %v", path, err)
		}
		outPixels += out.OutputPixels
		seconds := float64(len(src)) / float64(fps)
		line := fmt.Sprintf("%-10s %4dx%-4d %8.0f bps", out.Spec.Name,
			out.Spec.Resolution.Width, out.Spec.Resolution.Height,
			float64(out.TotalBits)/seconds)
		if *verify || *y4mOut {
			dec, err := codec.DecodeSequence(out.Packets)
			if err != nil {
				fail("verify %s: %v", out.Spec.Name, err)
			}
			if *verify {
				ref := make([]*video.Frame, len(dec))
				for i, f := range src {
					ref[i] = video.Scale(f, out.Spec.Resolution.Width, out.Spec.Resolution.Height)
				}
				line += fmt.Sprintf("  PSNR %.2f dB", video.SequencePSNR(ref, dec))
			}
			if *y4mOut {
				yp := filepath.Join(*outDir, fmt.Sprintf("%s-%s-%s.y4m", name, out.Spec.Name, prof))
				if err := writeY4M(yp, dec, fps); err != nil {
					fail("write %s: %v", yp, err)
				}
			}
		}
		fmt.Println(line + "  -> " + path)
	}
	fmt.Printf("encoded %.1f Mpix in %v (%.2f Mpix/s software encode)\n",
		float64(outPixels)/1e6, wall.Round(time.Millisecond),
		float64(outPixels)/1e6/wall.Seconds())
}

func writeStream(path string, out transcode.Output, fps, frames int) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Close errors matter on the write path: a full disk surfaces here.
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := container.NewWriter(f)
	if err := w.WriteHeader(container.StreamInfo{
		Profile: out.Spec.Profile,
		Width:   out.Spec.Resolution.Width, Height: out.Spec.Resolution.Height,
		FPS: fps, FrameCount: frames,
	}); err != nil {
		return err
	}
	for _, p := range out.Packets {
		if err := w.WritePacket(p); err != nil {
			return err
		}
	}
	return nil
}

func writeY4M(path string, frames []*video.Frame, fps int) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := video.NewY4MWriter(f, frames[0].Width, frames[0].Height, fps)
	for _, fr := range frames {
		if err := w.WriteFrame(fr); err != nil {
			return err
		}
	}
	return w.Close()
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
