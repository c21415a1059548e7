package video

import "math"

// MSE returns the mean squared error between two equally-sized pixel
// planes. It panics on length mismatch, which always indicates a caller
// bug rather than a data condition.
func MSE(a, b []uint8) float64 {
	if len(a) != len(b) {
		panic("video: MSE plane length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	var sum uint64
	for i := range a {
		d := int64(a[i]) - int64(b[i])
		sum += uint64(d * d)
	}
	return float64(sum) / float64(len(a))
}

// PSNR returns the peak signal-to-noise ratio in dB for an MSE, using an
// 8-bit peak. Identical planes return +Inf.
func PSNR(mse float64) float64 {
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

// FramePSNR returns the combined PSNR of two frames, weighting the three
// planes by pixel count (the common "YUV-PSNR" used in codec evaluation;
// the paper's Fig. 7 vertical axis).
func FramePSNR(a, b *Frame) float64 {
	return PSNR(frameMSE(a, b))
}

func frameMSE(a, b *Frame) float64 {
	ny, nuv := len(a.Y), len(a.U)+len(a.V)
	sum := MSE(a.Y, b.Y)*float64(ny) +
		MSE(a.U, b.U)*float64(len(a.U)) +
		MSE(a.V, b.V)*float64(len(a.V))
	return sum / float64(ny+nuv)
}

// SequencePSNR returns the PSNR over a pair of frame sequences, computed
// from the pooled MSE (not the mean of per-frame PSNRs, which overweights
// easy frames).
func SequencePSNR(a, b []*Frame) float64 {
	if len(a) != len(b) {
		panic("video: SequencePSNR length mismatch")
	}
	var total float64
	for i := range a {
		total += frameMSE(a[i], b[i])
	}
	return PSNR(total / float64(len(a)))
}
