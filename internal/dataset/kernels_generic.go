//go:build !amd64 || purego

package dataset

import (
	"encoding/binary"
	"math/bits"
)

// This file is the portable build of the byte-code run kernels: every
// architecture but amd64, and amd64 under the purego tag. It tests eight
// codes per 64-bit word (SWAR); kernels_amd64.s tests sixteen per SSE2
// compare. Both write the same words.

// SWAR constants: each byte's high bit, and the multiplier that gathers the
// eight high bits into the top byte (bit 8k+7 to bit 56+k, without carries).
const (
	swarHigh   = 0x8080808080808080
	swarGather = 0x0002040810204081
)

// codeRun is a run of byte codes [lo, hi) inside one half of the code space,
// [0, 128) or [128, 256), as the constants of its SWAR test: lo' = lo&127
// and hi' = ((hi-1)&127)+1 in every byte, half = swarHigh for the low half.
type codeRun struct{ lo, hi, half uint64 }

// match sets the high bit of each byte of x whose code lies in the run, given
// y = x | swarHigh; the other bits are noise. Per byte y is in [128, 255] and
// lo', hi' <= 128, so no borrow crosses a byte: y-lo' keeps the high bit iff
// x&127 >= lo', y-hi' iff x&127 >= hi', and x^half iff x is in the half.
func (r codeRun) match(x, y uint64) uint64 { return (y - r.lo) &^ (y - r.hi) & (x ^ r.half) }

// swarRuns lowers b's runs to SWAR tests, a run that straddles code 128 cut
// in two at it; ok is false past two tests.
func swarRuns(b byteRuns) (runs [2]codeRun, k int, ok bool) {
	if b.n > len(b.runs) {
		return runs, 0, false
	}
	for _, r := range b.runs[:b.n] {
		for lo := r.lo; lo < r.hi; {
			hi := r.hi
			if lo < 128 && hi > 128 {
				hi = 128
			}
			if k == len(runs) {
				return runs, k, false
			}
			const ones = 0x0101010101010101
			runs[k] = codeRun{uint64(lo&127) * ones, uint64((hi-1)&127+1) * ones, swarHigh * b2u(lo < 128)}
			k++
			lo = hi
		}
	}
	return runs, k, true
}

// fillRuns writes the bitmap words for the codes in b's runs over a window
// of byte codes and returns their set bits. Up to two SWAR tests go to
// fillRun or fillTwoRuns; more read set, the same codes one bit per code,
// with fillInWide. The tail under 64 rows goes row by row.
func fillRuns(dst []uint64, codes []uint8, b byteRuns, set []uint64) int {
	runs, k, ok := swarRuns(b)
	if !ok {
		return fillInWide(dst, codes, set)
	}
	nw := len(codes) / 64
	var n int
	if k == 1 {
		n = fillRun(dst, codes, runs[0])
	} else {
		n = fillTwoRuns(dst, codes, runs[0], runs[1])
	}
	return n + fillRunsTail(dst[nw:], codes[nw*64:], b)
}

// fillRun writes the bitmap words for the codes in one run over the whole
// words of a window of byte codes: five operations test eight rows, a
// multiply gathers their flags into a byte, and the little-endian load puts
// row j's flag on bit j. Eight constant shifts, not a loop over j with
// << (j&63): 0.45 ns/row, not 0.75.
func fillRun(dst []uint64, codes []uint8, r codeRun) int {
	flags := func(s []uint8) uint64 {
		x := binary.LittleEndian.Uint64(s)
		return (r.match(x, x|swarHigh) & swarHigh) * swarGather >> 56
	}
	n := 0
	nw := len(codes) / 64
	for wi := 0; wi < nw; wi++ {
		chunk := codes[wi*64 : wi*64+64 : wi*64+64]
		word := flags(chunk[0:8:8]) |
			flags(chunk[8:16:16])<<8 |
			flags(chunk[16:24:24])<<16 |
			flags(chunk[24:32:32])<<24 |
			flags(chunk[32:40:40])<<32 |
			flags(chunk[40:48:48])<<40 |
			flags(chunk[48:56:56])<<48 |
			flags(chunk[56:64:64])<<56
		dst[wi] = word
		n += bits.OnesCount64(word)
	}
	return n
}

// fillTwoRuns is fillRun for the codes in either of two runs, which share
// the load and y.
func fillTwoRuns(dst []uint64, codes []uint8, r, q codeRun) int {
	flags := func(s []uint8) uint64 {
		x := binary.LittleEndian.Uint64(s)
		y := x | swarHigh
		return ((r.match(x, y) | q.match(x, y)) & swarHigh) * swarGather >> 56
	}
	n := 0
	nw := len(codes) / 64
	for wi := 0; wi < nw; wi++ {
		chunk := codes[wi*64 : wi*64+64 : wi*64+64]
		word := flags(chunk[0:8:8]) |
			flags(chunk[8:16:16])<<8 |
			flags(chunk[16:24:24])<<16 |
			flags(chunk[24:32:32])<<24 |
			flags(chunk[32:40:40])<<32 |
			flags(chunk[40:48:48])<<40 |
			flags(chunk[48:56:56])<<48 |
			flags(chunk[56:64:64])<<56
		dst[wi] = word
		n += bits.OnesCount64(word)
	}
	return n
}
