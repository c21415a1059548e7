// Package video is a bigcopy-analyzer fixture: it lives under a hot
// directory, so large by-value copies are flagged.
package video

// BigBlock is ~1024 bytes: well over the 256-byte threshold.
type BigBlock struct {
	Pix [1024]uint8
}

// SmallMeta is well under the threshold.
type SmallMeta struct {
	W, H int
}

func sumBlock(b BigBlock) int { // want "parameter BigBlock copies"
	total := 0
	for _, p := range b.Pix {
		total += int(p)
	}
	return total
}

func sumBlockPtr(b *BigBlock) int { // fine: pointer
	total := 0
	for _, p := range b.Pix {
		total += int(p)
	}
	return total
}

func (b BigBlock) Checksum() int { // want "receiver BigBlock copies"
	return int(b.Pix[0])
}

func useMeta(m SmallMeta) int { // fine: small struct
	return m.W * m.H
}

func sumAll() int {
	total := 0
	bs := make([]BigBlock, 4)
	for _, b := range bs { // want "range copies"
		total += int(b.Pix[0])
	}
	return total
}

func bigArray(a [512]uint8) int { // want "parameter uint8 array copies"
	return int(a[0])
}

//lint:ignore bigcopy fixture demonstrates an accepted by-value copy on a cold path
func suppressedCopy(b BigBlock) int {
	return int(b.Pix[0])
}

// PaddedFlags alternates bool and int64 fields. Its fields sum to
// 17 x (1 + 8) = 153 bytes, under the threshold; each bool is padded to
// the alignment of the int64 after it, so a value is 17 x 16 = 272
// bytes, over it.
type PaddedFlags struct {
	On0  bool
	At0  int64
	On1  bool
	At1  int64
	On2  bool
	At2  int64
	On3  bool
	At3  int64
	On4  bool
	At4  int64
	On5  bool
	At5  int64
	On6  bool
	At6  int64
	On7  bool
	At7  int64
	On8  bool
	At8  int64
	On9  bool
	At9  int64
	On10 bool
	At10 int64
	On11 bool
	At11 int64
	On12 bool
	At12 int64
	On13 bool
	At13 int64
	On14 bool
	At14 int64
	On15 bool
	At15 int64
	On16 bool
	At16 int64
}

func countFlags(p PaddedFlags) int { // want "parameter PaddedFlags copies ~272 bytes"
	if p.On0 {
		return int(p.At0)
	}
	return 0
}
