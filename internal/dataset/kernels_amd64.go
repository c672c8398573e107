//go:build amd64 && !purego

package dataset

import "math/bits"

// runWords writes nw >= 1 bitmap words to dst: bit j of word w is set iff
// the code codes[64w+j] lies in run 1 or run 2, a run [lo, hi) given as lo
// and span = hi-lo-1. One run is passed as both and takes a one-run loop. It
// reads 64*nw codes and uses SSE2 alone, which every amd64 CPU has
// (kernels_amd64.s).
//
//go:noescape
func runWords(dst *uint64, codes *uint8, nw int, lo1, span1, lo2, span2 uint8)

// fillRuns writes the bitmap words for the codes in b's runs over a window
// of byte codes and returns their set bits. One or two runs are tested
// sixteen codes per SSE2 compare by runWords; more read set, the same codes
// one bit per code, with fillInWide. The tail under 64 rows goes row by row.
func fillRuns(dst []uint64, codes []uint8, b byteRuns, set []uint64) int {
	if b.n > len(b.runs) {
		return fillInWide(dst, codes, set)
	}
	nw := len(codes) / 64
	n := 0
	if words := dst[:nw]; nw > 0 {
		r, q := b.runs[0], b.runs[b.n-1]
		runWords(&words[0], &codes[0], nw, uint8(r.lo), uint8(r.hi-r.lo-1), uint8(q.lo), uint8(q.hi-q.lo-1))
		for _, w := range words {
			n += bits.OnesCount64(w)
		}
	}
	return n + fillRunsTail(dst[nw:], codes[nw*64:], b)
}
