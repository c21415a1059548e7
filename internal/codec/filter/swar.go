package filter

// SWAR deblock kernels: the loop filter runs 8 edge pixels per uint64,
// in both directions. filterEdge reduces exactly to a rule on the step
// a = |q0−p0| (TestFilterEdgeReduction checks every (p0, q0) pair): when
// a ≤ t and both sides are flat (|p0−p1| ≤ t, |q1−q0| ≤ t), the lower of
// p0/q0 rises by (a+3)/6 and the higher falls by (a+2)/6, so nothing
// moves when a ≤ 2. The decision is packed absolute differences and
// per-byte compares, the divide by 6 runs in 16-bit lanes, and both
// results land with plain adds that cannot carry between bytes (the
// lower side never passes the higher). Most of a reconstructed frame is
// flat, so most groups of 8 stop after the step's absolute difference. A
// horizontal edge reads its four rows directly; a vertical edge
// transposes the four pixels around it in 8 consecutive rows into four
// lane words, and the two changed columns back. Bit-identical to
// DeblockPlaneScalar (enforced by differential test).

import "encoding/binary"

const (
	fswarMSB  = 0x8080808080808080 // per-byte sign bit
	fswarOne  = 0x0101010101010101 // byte-replication multiplier
	evenBytes = 0x00ff00ff00ff00ff // the low byte of each 16-bit lane
	lane16One = 0x0001000100010001 // 16-bit-lane replication multiplier
	// div6Mul/div6Shift divide by 6 in each 16-bit lane: x·171 >> 10 is
	// x/6 for x ≤ 514, and a 16-bit lane holds x·171 for x ≤ 383, so
	// every x = a+2 or a+3 ≤ 258 is exact.
	div6Mul   = 171
	div6Shift = 10
)

// fAbsDiffU64 is the packed per-byte |a-b| (same construction as
// motion's absDiffU64: wrapped difference with the borrow chain cut at
// byte boundaries, then conditional negation by the borrow mask).
func fAbsDiffU64(a, b uint64) uint64 {
	d := ((a | fswarMSB) - (b &^ fswarMSB)) ^ ((a ^ ^b) & fswarMSB)
	borrow := ((^a & b) | ((^a | b) & d)) & fswarMSB
	lt := borrow >> 7
	return (d ^ (lt * 0xff)) + lt
}

// geMaskU64 returns 0x80 in each byte where a >= b (per-byte unsigned):
// the complement of the subtraction borrow-out of a-b.
func geMaskU64(a, b uint64) uint64 {
	d := ((a | fswarMSB) - (b &^ fswarMSB)) ^ ((a ^ ^b) & fswarMSB)
	borrow := ((^a & b) | ((^a | b) & d)) & fswarMSB
	return ^borrow & fswarMSB
}

// div6Lanes divides each 16-bit lane of x (each at most 383) by 6.
func div6Lanes(x uint64) uint64 {
	return x * div6Mul >> div6Shift & (0x3f * lane16One)
}

// laneThreshold packs the filter threshold into every byte. Pixel
// differences never exceed 255, so clamping it to 255 preserves every
// comparison exactly.
func laneThreshold(thresh int32) uint64 {
	return uint64(min(thresh, 255)) * fswarOne
}

// filterLanes filters 8 edge pixels, one per byte lane: p1, p0 | q0, q1
// are the two pixels on each side of the edge. It returns the filtered
// p0 and q0 and whether any lane changed.
func filterLanes(p1, p0, q0, q1, tv uint64) (np0, nq0 uint64, moved bool) {
	a := fAbsDiffU64(q0, p0)
	// Most words are flat: every a ≤ 2, no bit above the low two and
	// no lane of 3.
	if a&^(3*fswarOne)|a&(a>>1)&fswarOne == 0 {
		return p0, q0, false
	}
	m := geMaskU64(a, 3*fswarOne) & geMaskU64(tv, a) &
		geMaskU64(tv, fAbsDiffU64(p0, p1)) & geMaskU64(tv, fAbsDiffU64(q1, q0))
	if m == 0 {
		return p0, q0, false
	}
	a &= m >> 7 * 0xff // inactive lanes step by (0+3)/6 = (0+2)/6 = 0
	lo, hi := a&evenBytes, a>>8&evenBytes
	up := div6Lanes(lo+3*lane16One) | div6Lanes(hi+3*lane16One)<<8
	down := div6Lanes(lo+2*lane16One) | div6Lanes(hi+2*lane16One)<<8
	pLow := (^geMaskU64(p0, q0) & fswarMSB) >> 7 * 0xff // 0xff where p0 < q0
	return p0 + up&pLow - down&^pLow, q0 - down&pLow + up&^pLow, true
}

// load8 reads the n ≤ 8 bytes of r at x into the low lanes of a word.
func load8(r []uint8, x, n int) uint64 {
	if n == 8 {
		return binary.LittleEndian.Uint64(r[x:])
	}
	var b [8]uint8
	copy(b[:], r[x:x+n])
	return binary.LittleEndian.Uint64(b[:])
}

// store8 writes the low n ≤ 8 lanes of v to r at x.
func store8(r []uint8, x, n int, v uint64) {
	if n == 8 {
		binary.LittleEndian.PutUint64(r[x:], v)
		return
	}
	var b [8]uint8
	binary.LittleEndian.PutUint64(b[:], v)
	copy(r[x:x+n], b[:n])
}

// deblockHorizRow filters one horizontal block edge across columns
// [0, w) of the four rows straddling it, writing p0r and q0r in place.
// Pixels along the edge are independent (each touches only its own
// column), 8 to a word; the last word of a row not a multiple of 8 wide
// holds fewer.
func deblockHorizRow(p1r, p0r, q0r, q1r []uint8, w int, tv uint64) {
	for x := 0; x < w; x += 8 {
		n := min(8, w-x)
		p0, q0, moved := filterLanes(load8(p1r, x, n), load8(p0r, x, n), load8(q0r, x, n), load8(q1r, x, n), tv)
		if moved {
			store8(p0r, x, n, p0)
			store8(q0r, x, n, q0)
		}
	}
}

// edgeWord returns the four pixels around the vertical edge at pix[i],
// p1 in the low byte: pix[i-2], pix[i-1], pix[i], and pix[i+1] when
// the row has it, else pix[i] again.
func edgeWord(pix []uint8, i int, hasNext bool) uint64 {
	if hasNext {
		return uint64(binary.LittleEndian.Uint32(pix[i-2:]))
	}
	return uint64(pix[i-2]) | uint64(pix[i-1])<<8 | uint64(pix[i])*0x01010000
}

// edgeWords loads the edge words (edgeWord) of rows 0..7 of rows, stride
// w, the first at rows[0], pairing rows j and j+4 in one word each.
func edgeWords(rows []uint8, w int) (a, b, c, d uint64) {
	u := func(j int) uint64 { return uint64(binary.LittleEndian.Uint32(rows[j*w:])) }
	return u(0) | u(4)<<32, u(1) | u(5)<<32, u(2) | u(6)<<32, u(3) | u(7)<<32
}

// swapLanes exchanges the odd-numbered k-bit fields of a with the
// even-numbered ones of b (mask selects the even fields): one step of a
// transpose.
func swapLanes(a, b *uint64, k uint, mask uint64) {
	t := (*a>>k ^ *b) & mask
	*b ^= t
	*a ^= t << k
}

// deblockVertRows filters the vertical edge at column x of the n ≤ 8
// rows of pix (stride w) starting at row y. Row j's edge word goes to
// lane j: rows j and j+4 share a word, two swap steps make the four
// lane words, and one swap interleaves the changed p0 and q0 back into
// one 16-bit field per row.
func deblockVertRows(pix []uint8, w, x, y, n int, tv uint64) {
	var a, b, c, d uint64
	if i := y*w + x; n == 8 && x+1 < w {
		a, b, c, d = edgeWords(pix[i-2:i+7*w+2], w)
	} else {
		var r [8]uint64
		for j := range r[:n] {
			r[j] = edgeWord(pix, i+j*w, x+1 < w)
		}
		a, b, c, d = r[0]|r[4]<<32, r[1]|r[5]<<32, r[2]|r[6]<<32, r[3]|r[7]<<32
	}
	swapLanes(&a, &b, 8, evenBytes)
	swapLanes(&c, &d, 8, evenBytes)
	swapLanes(&a, &c, 16, 0x0000ffff0000ffff)
	swapLanes(&b, &d, 16, 0x0000ffff0000ffff)
	// a, b, c, d now hold p1, p0, q0, q1 of rows 0..7.
	p0, q0, moved := filterLanes(a, b, c, d, tv)
	if !moved {
		return
	}
	swapLanes(&p0, &q0, 8, evenBytes)
	// p0 holds the (p0, q0) pairs of rows 0, 2, 4, 6; q0 of 1, 3, 5, 7.
	for j := range n {
		pair := p0
		if j&1 != 0 {
			pair = q0
		}
		binary.LittleEndian.PutUint16(pix[(y+j)*w+x-1:], uint16(pair>>(16*(j>>1))))
	}
}
