// Package predict implements intra (spatial) prediction for the encoder
// core's RDO engine: DC, horizontal, vertical and TrueMotion modes, formed
// from the reconstructed pixels above and to the left of the current block
// (which the hardware keeps in SRAM line buffers, paper §3.2).
package predict

import (
	"encoding/binary"

	"openvcu/internal/video"
)

// IntraMode enumerates the spatial prediction modes.
type IntraMode int

// Intra prediction modes.
const (
	IntraDC IntraMode = iota
	IntraH
	IntraV
	IntraTM
	NumIntraModes
)

// String returns the mode name.
func (m IntraMode) String() string {
	switch m {
	case IntraDC:
		return "DC"
	case IntraH:
		return "H"
	case IntraV:
		return "V"
	case IntraTM:
		return "TM"
	}
	return "?"
}

// Neighbors holds the reconstructed border pixels available for prediction.
// Above and Left have length n (the block size); TopLeft is the corner.
// HasAbove/HasLeft are false at picture borders, where the predictors fall
// back to the 128 mid-gray convention.
type Neighbors struct {
	Above    []uint8
	Left     []uint8
	TopLeft  uint8
	HasAbove bool
	HasLeft  bool
}

// MaxN is the largest block size the predictors serve (the AV1-class
// superblock).
const MaxN = 128

// NeighborBuf backs one gathered neighbor set without allocating: the
// returned Neighbors slices alias its arrays. One buffer per
// single-threaded coding context; the contents are only valid until the
// next gather.
type NeighborBuf struct {
	above, left [MaxN]uint8
}

// GatherNeighborsBounded extracts the neighbor set for the n×n block at
// (x, y) in plane data of width w, height h. recon must contain
// reconstructed pixels for everything above and left of the block in
// coding order. minX is the left availability bound: blocks at or left
// of it have no left neighbors, and the pixels beyond the bound are
// never read — required for tile columns, whose left neighbor may be
// encoded concurrently by another goroutine.
func GatherNeighborsBounded(recon []uint8, w, h, x, y, n, minX int, buf *NeighborBuf) Neighbors {
	nb := Neighbors{Above: buf.above[:n], Left: buf.left[:n]}
	if y > 0 {
		nb.HasAbove = true
		for i := 0; i < n; i++ {
			sx := x + i
			if sx >= w {
				sx = w - 1
			}
			nb.Above[i] = recon[(y-1)*w+sx]
		}
	}
	if x > minX {
		nb.HasLeft = true
		for i := 0; i < n; i++ {
			sy := y + i
			if sy >= h {
				sy = h - 1
			}
			nb.Left[i] = recon[sy*w+x-1]
		}
	}
	if x > minX && y > 0 {
		nb.TopLeft = recon[(y-1)*w+x-1]
	} else {
		nb.TopLeft = 128
	}
	return nb
}

// Predict fills the n×n block at the start of dst, rows stride apart,
// with the prediction for the mode.
func Predict(mode IntraMode, nb Neighbors, dst []uint8, stride, n int) {
	switch mode {
	case IntraH:
		predictH(nb, dst, stride, n)
	case IntraV:
		predictV(nb, dst, stride, n)
	case IntraTM:
		predictTM(nb, dst, stride, n)
	default:
		predictDC(nb, dst, stride, n)
	}
}

func predictDC(nb Neighbors, dst []uint8, stride, n int) {
	var sum, cnt int32
	if nb.HasAbove {
		for _, v := range nb.Above {
			sum += int32(v)
		}
		cnt += int32(n)
	}
	if nb.HasLeft {
		for _, v := range nb.Left {
			sum += int32(v)
		}
		cnt += int32(n)
	}
	dc := uint8(128)
	if cnt > 0 {
		dc = uint8((sum + cnt/2) / cnt)
	}
	for y := 0; y < n; y++ {
		fill(dst[y*stride:][:n], dc)
	}
}

func predictH(nb Neighbors, dst []uint8, stride, n int) {
	for y := 0; y < n; y++ {
		v := uint8(128)
		if nb.HasLeft {
			v = nb.Left[y]
		}
		fill(dst[y*stride:][:n], v)
	}
}

func predictV(nb Neighbors, dst []uint8, stride, n int) {
	for y := 0; y < n; y++ {
		row := dst[y*stride:][:n]
		if nb.HasAbove {
			copy(row, nb.Above[:n])
		} else {
			fill(row, 128)
		}
	}
}

// predictTM is VP8/VP9 TrueMotion: p = left + above - topleft, clamped.
func predictTM(nb Neighbors, dst []uint8, stride, n int) {
	if !nb.HasAbove || !nb.HasLeft {
		predictDC(nb, dst, stride, n)
		return
	}
	tl := int32(nb.TopLeft)
	for y := 0; y < n; y++ {
		l := int32(nb.Left[y])
		row := dst[y*stride:][:n]
		for x := range row {
			row[x] = video.ClampU8(l + int32(nb.Above[x]) - tl)
		}
	}
}

// fill sets every sample of row to v, 8 a store.
func fill(row []uint8, v uint8) {
	i := 0
	for w := uint64(v) * 0x0101010101010101; i+8 <= len(row); i += 8 {
		binary.LittleEndian.PutUint64(row[i:], w)
	}
	for ; i < len(row); i++ {
		row[i] = v
	}
}
