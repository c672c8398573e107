package dataset

import (
	"encoding/binary"
	"math/bits"
)

// This file holds the count of a small dictionary by its bit planes. A
// byte-coded column of 2 to maxPlaneCodes codes is sliced once into at most
// three bit planes (the vertical bit-sliced layout of BitWeaving/V, Li and
// Patel, SIGMOD 2013): bit j of a plane's word w is one bit of the code of
// row 64w+j. The planes split each selection word top-down into one mask
// per code, and a popcount of each mask counts that code's selected rows:
// per 64 rows a handful of ANDs and popcounts, where the scan (countCodes)
// pays a loop exit, a TrailingZeros64, a load and an increment per selected
// row. Counts are integers, so both give the same answer bit for bit.
//
// The planes are a column's memo entry (refStats), built on the first count
// over a view that is not full and kept for the column's lifetime: 1/8 byte
// per row and plane, so at most 3/8 byte per row. A mapped column counts over
// its source's codes, so its planes are the source's. Wider dictionaries and
// 2- or 4-byte codes keep the scan.

// maxPlaneCodes is the largest dictionary counted by its planes: three
// planes, eight leaf masks per selection word.
const maxPlaneCodes = 8

// codePlanes is a byte-coded column's codes sliced into np bit planes,
// interleaved by word: words[w*np+b] holds bit b of the codes of rows 64w to
// 64w+63, so one selection word's planes share a cache line. Bits past the
// last row are zero. Immutable once built.
type codePlanes struct {
	np    int
	words []uint64
}

// planeCounted reports whether the selected rows of c, an unmapped column,
// are counted by its bit planes: byte codes and 2 to maxPlaneCodes of them.
func (c *Column) planeCounted() bool {
	n := c.dictLen()
	return c.width == 1 && n >= 2 && n <= maxPlaneCodes
}

// countKernel names the kernel that counts the selected rows of c per code
// on a view that is not full, for the kernel spans: "planes" or "scan".
func (c *Column) countKernel() string {
	if c.rows().planeCounted() {
		return "planes"
	}
	return "scan"
}

// codePlanes returns the memoized bit planes of c, an unmapped column that
// planeCounted, slicing its codes on first use. Racing first users wait on
// the column's plane lock, so the planes are built once.
func (c *Column) codePlanes() *codePlanes {
	get := func() *codePlanes { return c.ref.planes }
	put := func(p *codePlanes) { c.ref.planes = p }
	c.ref.mu.RLock()
	built := get() != nil
	c.ref.mu.RUnlock()
	if !built {
		c.ref.planeMu.Lock()
		defer c.ref.planeMu.Unlock()
	}
	p, _ := memoized(&c.ref, get, put, func() (*codePlanes, error) {
		return sliceCodes(c.codes8, bits.Len(uint(c.dictLen()-1))), nil
	})
	return p
}

// sliceCodes builds the np bit planes of codes. Each 8-code group's bit b
// is gathered into one byte by the multiply that moves bit 8k of
// (x>>b)&0x0101…01 to bit 56+k; the last partial word reads its codes
// through a zeroed 64-code buffer, so its missing rows are code 0 and
// unselected.
func sliceCodes(codes []uint8, np int) *codePlanes {
	nw := (len(codes) + 63) / 64
	p := &codePlanes{np: np, words: make([]uint64, nw*np)}
	full := len(codes) / 64
	for w := 0; w < full; w++ {
		slicePlanes(p.words[w*np:(w+1)*np], codes[w*64:w*64+64])
	}
	if full < nw {
		var tail [64]uint8
		copy(tail[:], codes[full*64:])
		slicePlanes(p.words[full*np:], tail[:])
	}
	return p
}

// slicePlanes writes the bit planes of 64 codes into dst, one word per
// plane.
func slicePlanes(dst []uint64, codes []uint8) {
	codes = codes[:64]
	for b := range dst {
		var w uint64
		for g := 0; g < 8; g++ {
			x := binary.LittleEndian.Uint64(codes[8*g:])
			w |= ((x >> b) & 0x0101010101010101) * 0x0102040810204080 >> 56 << (8 * g)
		}
		dst[b] = w
	}
}

// countPlanes tallies the selected rows of an unmapped column that
// planeCounted into its n codes: per morsel, the planes' counts of codes 1 to
// n−1 are added into the lane's accumulator once, and code 0 holds the
// selected rows no other code counts.
func countPlanes(v View, p *codePlanes, n int) []int {
	acc := reduceInts(v.table.execPool(), v.sel.n, n, func(lo, hi int, acc []int) {
		w0, w1 := lo/64, (hi+63)/64
		counts := p.count(v.sel.words[w0:w1], p.words[w0*p.np:w1*p.np], n)
		for k := 1; k < n; k++ {
			acc[k] += counts[k]
		}
	})
	acc[0] = v.sel.count
	for _, c := range acc[1:] {
		acc[0] -= c
	}
	return acc
}

// count returns how many rows of the selection words sel hold each code 1
// to n−1, planes being the planes of the same words. A zero selection word
// is skipped; any other is split by the top plane, then the next, into one
// mask per code (for eight codes, 14 ANDs into 8 masks), and each mask but
// code 0's is counted by a popcount. Codes at or past n hold no row and are
// not counted.
func (p *codePlanes) count(sel, planes []uint64, n int) (c [maxPlaneCodes]int) {
	switch p.np {
	case 1:
		planes = planes[:len(sel)]
		for w, s := range sel {
			if s != 0 {
				c[1] += bits.OnesCount64(s & planes[w])
			}
		}
	case 2:
		planes = planes[:2*len(sel)]
		for w, s := range sel {
			if s == 0 {
				continue
			}
			b0, b1 := planes[2*w], planes[2*w+1]
			h0, h1 := s&^b1, s&b1
			c[1] += bits.OnesCount64(h0 & b0)
			c[2] += bits.OnesCount64(h1 &^ b0)
			if n > 3 {
				c[3] += bits.OnesCount64(h1 & b0)
			}
		}
	default:
		planes = planes[:3*len(sel)]
		for w, s := range sel {
			if s == 0 {
				continue
			}
			b0, b1, b2 := planes[3*w], planes[3*w+1], planes[3*w+2]
			h0, h1 := s&^b2, s&b2
			h00, h01, h10 := h0&^b1, h0&b1, h1&^b1
			c[1] += bits.OnesCount64(h00 & b0)
			c[2] += bits.OnesCount64(h01 &^ b0)
			c[3] += bits.OnesCount64(h01 & b0)
			c[4] += bits.OnesCount64(h10 &^ b0)
			if n > 5 {
				c[5] += bits.OnesCount64(h10 & b0)
			}
			if n > 6 {
				h11 := h1 & b1
				c[6] += bits.OnesCount64(h11 &^ b0)
				if n > 7 {
					c[7] += bits.OnesCount64(h11 & b0)
				}
			}
		}
	}
	return c
}
