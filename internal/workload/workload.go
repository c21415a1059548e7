// Package workload models the platform's video corpus and usage patterns
// (paper §2.2): popularity follows a stretched power law with three
// treatment buckets — the very popular videos that dominate watch time,
// modestly watched videos, and the long tail — and supports the §4.5
// experiment: what fraction of egress can be served in VP9 under the
// CPU-era policy (VP9 only for popular videos, produced in batch after
// upload) versus the VCU-era policy (VP9 for everything at upload time).
package workload

import "math"

// Video is one corpus entry.
type Video struct {
	ID int
	// Rank is the popularity rank (1 = most watched).
	Rank int
	// WatchSeconds is total watch time accrued over the study window.
	WatchSeconds float64
	// DurationSeconds is the video length.
	DurationSeconds float64
	// Resolution ladder top (pixels per frame) — popular content skews
	// higher-resolution.
	TopPixels int
}

// Bucket is the §2.2 treatment class.
type Bucket int

// Buckets.
const (
	BucketPopular Bucket = iota
	BucketModerate
	BucketTail
)

// String names the bucket.
func (b Bucket) String() string {
	switch b {
	case BucketPopular:
		return "popular"
	case BucketModerate:
		return "moderate"
	default:
		return "tail"
	}
}

// Corpus is a generated video population.
type Corpus struct {
	Videos []Video
	// PopularCut and ModerateCut are rank boundaries: ranks <= PopularCut
	// are popular; ranks <= ModerateCut are moderate; the rest is tail.
	PopularCut, ModerateCut int
}

// Generate builds an n-video corpus with stretched-power-law watch time:
// watch(r) ∝ exp(-(r/s)^beta) / r^alpha — heavy head, very long tail.
func Generate(n int, seed uint64) *Corpus {
	rng := seed*2 + 1
	next := func() float64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return float64(rng%1e9) / 1e9
	}
	const (
		alpha = 0.8
		beta  = 0.35
	)
	s := float64(n) / 4
	c := &Corpus{PopularCut: maxInt(n/100, 1), ModerateCut: maxInt(n/10, 2)}
	for r := 1; r <= n; r++ {
		watch := math.Exp(-math.Pow(float64(r)/s, beta)) / math.Pow(float64(r), alpha)
		watch *= 1e7 // scale to watch-seconds
		dur := 60 + next()*540
		pixels := 1280 * 720
		if r <= c.PopularCut {
			pixels = 1920 * 1080
		} else if r > c.ModerateCut {
			pixels = 854 * 480
		}
		c.Videos = append(c.Videos, Video{
			ID: r - 1, Rank: r, WatchSeconds: watch,
			DurationSeconds: dur, TopPixels: pixels,
		})
	}
	return c
}

// BucketOf classifies a video.
func (c *Corpus) BucketOf(v Video) Bucket {
	switch {
	case v.Rank <= c.PopularCut:
		return BucketPopular
	case v.Rank <= c.ModerateCut:
		return BucketModerate
	default:
		return BucketTail
	}
}

// TotalWatch returns corpus watch-seconds.
func (c *Corpus) TotalWatch() float64 {
	var t float64
	for _, v := range c.Videos {
		t += v.WatchSeconds
	}
	return t
}

// WatchShare returns the fraction of total watch time accrued by the
// given bucket.
func (c *Corpus) WatchShare(b Bucket) float64 {
	var t float64
	for _, v := range c.Videos {
		if c.BucketOf(v) == b {
			t += v.WatchSeconds
		}
	}
	return t / c.TotalWatch()
}

// --- §4.5 VP9 treatment policies ---------------------------------------------

// Policy decides which videos get VP9 encodings and when.
type Policy int

// Policies.
const (
	// PolicyCPUEra: H.264 for everything at upload; VP9 only for popular
	// videos, produced later on low-cost batch CPU via SOT ("VP9 would
	// only be produced for the most popular videos using low-cost batch
	// CPU after upload", §4.5).
	PolicyCPUEra Policy = iota
	// PolicyVCUEra: both H.264 and VP9 produced at upload time with MOT
	// for every video.
	PolicyVCUEra
)

// EgressModel holds the serving-side constants.
type EgressModel struct {
	// H264BitsPerPixel is the served H.264 bitrate density.
	H264BitsPerPixel float64
	// VP9Saving is VP9's bitrate saving at iso quality (paper: ~30%
	// BD-rate vs H.264).
	VP9Saving float64
	// VP9CapableShare is the fraction of watch time on devices that can
	// decode VP9.
	VP9CapableShare float64
	// FPS of served streams.
	FPS float64
}

// DefaultEgressModel returns plausible serving constants.
func DefaultEgressModel() EgressModel {
	return EgressModel{H264BitsPerPixel: 0.06, VP9Saving: 0.30, VP9CapableShare: 0.8, FPS: 30}
}

// PolicyResult summarizes a policy applied to a corpus.
type PolicyResult struct {
	Policy Policy
	// EgressBits is the total bits served over the window.
	EgressBits float64
	// VP9WatchShare is the fraction of watch time served in VP9.
	VP9WatchShare float64
	// VP9Videos is how many videos have VP9 encodings at all.
	VP9Videos int
	// TranscodeComputeUnits is the relative transcode compute spent
	// (H.264-upload-equivalents; VP9 costs 6.5x on CPU, and the CPU era
	// pays extra SOT re-decodes).
	TranscodeComputeUnits float64
}

// Apply evaluates a policy over the corpus.
func Apply(c *Corpus, p Policy, m EgressModel) PolicyResult {
	res := PolicyResult{Policy: p}
	var vp9Watch float64
	for _, v := range c.Videos {
		hasVP9 := p == PolicyVCUEra || c.BucketOf(v) == BucketPopular
		if hasVP9 {
			res.VP9Videos++
		}
		// Egress: VP9-capable watch time uses VP9 when available.
		px := float64(v.TopPixels)
		h264Rate := m.H264BitsPerPixel * px * m.FPS
		vp9Rate := h264Rate * (1 - m.VP9Saving)
		watchVP9 := 0.0
		if hasVP9 {
			watchVP9 = v.WatchSeconds * m.VP9CapableShare
		}
		watchH264 := v.WatchSeconds - watchVP9
		res.EgressBits += watchVP9*vp9Rate + watchH264*h264Rate
		vp9Watch += watchVP9

		// Transcode compute, in H.264-MOT-upload units.
		const vp9CostFactor = 6.5
		switch p {
		case PolicyVCUEra:
			res.TranscodeComputeUnits += 1 + vp9CostFactor // MOT both formats at upload
		case PolicyCPUEra:
			res.TranscodeComputeUnits += 1 // H.264 at upload
			if hasVP9 {
				// Batch VP9 via SOT: extra re-decodes cost ~1.3x MOT.
				res.TranscodeComputeUnits += vp9CostFactor * 1.3
			}
		}
	}
	res.VP9WatchShare = vp9Watch / c.TotalWatch()
	return res
}

// EgressSaving returns the fractional egress reduction of b vs a.
func EgressSaving(a, b PolicyResult) float64 {
	return 1 - b.EgressBits/a.EgressBits
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
