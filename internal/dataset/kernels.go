package dataset

import (
	"encoding/binary"
	"math/bits"
	"sort"

	"aware/internal/colstore"
)

// This file holds the predicate leaf kernels behind Table.Where, one leaf per
// predicate type (whereEquals, whereIn, whereRange, whereGreater). Five
// techniques push them toward the hardware limit, each held word for word to
// a row-at-a-time evaluation of the predicate by the differential tests in
// kernels_test.go and encoding_test.go:
//
//   - branch-free compares: each row's predicate is computed as a 0/1 word
//     (b2u compiles to SETcc/CSET, no branch) and shifted into an
//     accumulator; the Selection word is written once per 64 rows instead
//     of a read-modify-write per matching row, and the per-row
//     mispredictable branch on selectivity disappears entirely;
//   - 8-lane packing: a 64-row chunk is walked as eight fixed 8-element
//     sub-slices whose eight 0/1 results are combined with constant shifts
//     into a byte, and the byte is OR-ed into the word with one << (j&63).
//     A per-row `<< uint(j)` makes Go emit its variable-shift range
//     handling (compare + conditional move) on every row; the packed form
//     pays it never, and the eight lanes carry no dependency on each other.
//     Tails shorter than 64 rows keep the per-row loop;
//   - bounds-check elimination: every kernel re-slices its column to the
//     exact morsel window and walks fixed 64-element chunks, so the
//     compiler proves the lane accesses in range and drops the checks;
//   - code-width specialization: the code kernels are generic over the
//     width a column's codes are stored at (colstore.Code). Over more than
//     256 codes, Equals compares codes at their width and In reads a
//     per-code bitset sized to the dictionary; neither probes a hash map;
//   - compare codes, not values: a leaf over byte codes — any column of at
//     most 256 codes, numeric ones (age, hours) coded into their sorted
//     values so low <= v < high is lo <= code < hi, a bool column its own
//     codes — is a list of runs of codes (byteRuns). fillRun tests one run
//     on eight rows per 64-bit word, fillTwoRuns two; more read the per-code
//     bitset. Wide columns keep the 8-byte kernels (fillRange*/fillGt*).
//
// Every kernel writes all words covering its window (the bit accumulator
// naturally leaves tail bits zero), so a fill does not depend on pre-zeroed
// storage.

// b2u converts a bool to a 0/1 word without a branch: the compiler lowers
// this exact shape to a flag materialization (SETcc on amd64, CSET on
// arm64), never a jump.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// fillRangeFloats writes the bitmap words for low <= v < high over one
// word-aligned window of a float column. dst spans exactly the window's
// words; col is the window's rows. Returns the number of set bits.
func fillRangeFloats(dst []uint64, col []float64, low, high float64) int {
	n := 0
	nw := len(col) / 64
	for wi := 0; wi < nw; wi++ {
		chunk := col[wi*64 : wi*64+64 : wi*64+64]
		var w uint64
		for j := 0; j < 64; j += 8 {
			s := chunk[j : j+8 : j+8]
			w |= (b2u(s[0] >= low)&b2u(s[0] < high) |
				(b2u(s[1] >= low)&b2u(s[1] < high))<<1 |
				(b2u(s[2] >= low)&b2u(s[2] < high))<<2 |
				(b2u(s[3] >= low)&b2u(s[3] < high))<<3 |
				(b2u(s[4] >= low)&b2u(s[4] < high))<<4 |
				(b2u(s[5] >= low)&b2u(s[5] < high))<<5 |
				(b2u(s[6] >= low)&b2u(s[6] < high))<<6 |
				(b2u(s[7] >= low)&b2u(s[7] < high))<<7) << (j & 63)
		}
		dst[wi] = w
		n += bits.OnesCount64(w)
	}
	if tail := col[nw*64:]; len(tail) > 0 {
		var w uint64
		for j, v := range tail {
			w |= (b2u(v >= low) & b2u(v < high)) << uint(j)
		}
		dst[nw] = w
		n += bits.OnesCount64(w)
	}
	return n
}

// fillRangeInts is fillRangeFloats over an int column. The row value is
// converted to float64 before comparing — the exact arithmetic of the
// row-at-a-time reference, so results stay bit-identical even for int64
// values a float64 cannot represent.
func fillRangeInts(dst []uint64, col []int64, low, high float64) int {
	n := 0
	nw := len(col) / 64
	for wi := 0; wi < nw; wi++ {
		chunk := col[wi*64 : wi*64+64 : wi*64+64]
		var w uint64
		for j := 0; j < 64; j += 8 {
			s := chunk[j : j+8 : j+8]
			w |= (b2u(float64(s[0]) >= low)&b2u(float64(s[0]) < high) |
				(b2u(float64(s[1]) >= low)&b2u(float64(s[1]) < high))<<1 |
				(b2u(float64(s[2]) >= low)&b2u(float64(s[2]) < high))<<2 |
				(b2u(float64(s[3]) >= low)&b2u(float64(s[3]) < high))<<3 |
				(b2u(float64(s[4]) >= low)&b2u(float64(s[4]) < high))<<4 |
				(b2u(float64(s[5]) >= low)&b2u(float64(s[5]) < high))<<5 |
				(b2u(float64(s[6]) >= low)&b2u(float64(s[6]) < high))<<6 |
				(b2u(float64(s[7]) >= low)&b2u(float64(s[7]) < high))<<7) << (j & 63)
		}
		dst[wi] = w
		n += bits.OnesCount64(w)
	}
	if tail := col[nw*64:]; len(tail) > 0 {
		var w uint64
		for j, v := range tail {
			f := float64(v)
			w |= (b2u(f >= low) & b2u(f < high)) << uint(j)
		}
		dst[nw] = w
		n += bits.OnesCount64(w)
	}
	return n
}

// fillGtFloats writes the bitmap words for v > threshold over a float
// window.
func fillGtFloats(dst []uint64, col []float64, threshold float64) int {
	n := 0
	nw := len(col) / 64
	for wi := 0; wi < nw; wi++ {
		chunk := col[wi*64 : wi*64+64 : wi*64+64]
		var w uint64
		for j := 0; j < 64; j += 8 {
			s := chunk[j : j+8 : j+8]
			w |= (b2u(s[0] > threshold) |
				b2u(s[1] > threshold)<<1 |
				b2u(s[2] > threshold)<<2 |
				b2u(s[3] > threshold)<<3 |
				b2u(s[4] > threshold)<<4 |
				b2u(s[5] > threshold)<<5 |
				b2u(s[6] > threshold)<<6 |
				b2u(s[7] > threshold)<<7) << (j & 63)
		}
		dst[wi] = w
		n += bits.OnesCount64(w)
	}
	if tail := col[nw*64:]; len(tail) > 0 {
		var w uint64
		for j, v := range tail {
			w |= b2u(v > threshold) << uint(j)
		}
		dst[nw] = w
		n += bits.OnesCount64(w)
	}
	return n
}

// fillGtInts is fillGtFloats over an int column (float64 conversion as in
// fillRangeInts).
func fillGtInts(dst []uint64, col []int64, threshold float64) int {
	n := 0
	nw := len(col) / 64
	for wi := 0; wi < nw; wi++ {
		chunk := col[wi*64 : wi*64+64 : wi*64+64]
		var w uint64
		for j := 0; j < 64; j += 8 {
			s := chunk[j : j+8 : j+8]
			w |= (b2u(float64(s[0]) > threshold) |
				b2u(float64(s[1]) > threshold)<<1 |
				b2u(float64(s[2]) > threshold)<<2 |
				b2u(float64(s[3]) > threshold)<<3 |
				b2u(float64(s[4]) > threshold)<<4 |
				b2u(float64(s[5]) > threshold)<<5 |
				b2u(float64(s[6]) > threshold)<<6 |
				b2u(float64(s[7]) > threshold)<<7) << (j & 63)
		}
		dst[wi] = w
		n += bits.OnesCount64(w)
	}
	if tail := col[nw*64:]; len(tail) > 0 {
		var w uint64
		for j, v := range tail {
			w |= b2u(float64(v) > threshold) << uint(j)
		}
		dst[nw] = w
		n += bits.OnesCount64(w)
	}
	return n
}

// fillEqCodes writes the bitmap words for code == want over a
// dictionary-code window.
func fillEqCodes[C colstore.Code](dst []uint64, col []C, want C) int {
	n := 0
	nw := len(col) / 64
	for wi := 0; wi < nw; wi++ {
		chunk := col[wi*64 : wi*64+64 : wi*64+64]
		var w uint64
		for j := 0; j < 64; j += 8 {
			s := chunk[j : j+8 : j+8]
			w |= (b2u(s[0] == want) |
				b2u(s[1] == want)<<1 |
				b2u(s[2] == want)<<2 |
				b2u(s[3] == want)<<3 |
				b2u(s[4] == want)<<4 |
				b2u(s[5] == want)<<5 |
				b2u(s[6] == want)<<6 |
				b2u(s[7] == want)<<7) << (j & 63)
		}
		dst[wi] = w
		n += bits.OnesCount64(w)
	}
	if tail := col[nw*64:]; len(tail) > 0 {
		var w uint64
		for j, v := range tail {
			w |= b2u(v == want) << uint(j)
		}
		dst[nw] = w
		n += bits.OnesCount64(w)
	}
	return n
}

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

// fillRun writes the bitmap words for the codes in one run over a window of
// byte codes: five operations test eight rows, a multiply gathers their flags
// into a byte, and the little-endian load puts row j's flag on bit j. Eight
// constant shifts, not a loop over j with << (j&63): 0.45 ns/row, not 0.75.
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
	return n + fillTwoRuns(dst[nw:], codes[nw*64:], r, r) // the tail, row by row
}

// fillTwoRuns is fillRun for the codes in either of two runs, which share
// the load and y; a window under 64 rows is all tail, tested row by row.
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
	if tail := codes[nw*64:]; len(tail) > 0 {
		var word uint64
		for j, c := range tail {
			x := uint64(c)
			word |= (r.match(x, x|swarHigh) | q.match(x, x|swarHigh)) >> 7 & 1 << uint(j)
		}
		dst[nw] = word
		n += bits.OnesCount64(word)
	}
	return n
}

// fillInWide is the wide-dictionary In kernel: the wanted set is a bitset
// with one bit per dictionary code. Codes are storage-validated to be in
// range, so the per-row bitset access is a load+shift, never a hash probe.
func fillInWide[C colstore.Code](dst []uint64, col []C, set []uint64) int {
	n := 0
	nw := len(col) / 64
	for wi := 0; wi < nw; wi++ {
		chunk := col[wi*64 : wi*64+64 : wi*64+64]
		var w uint64
		for j := 0; j < 64; j += 8 {
			s := chunk[j : j+8 : j+8]
			w |= (((set[s[0]>>6] >> (s[0] & 63)) & 1) |
				((set[s[1]>>6]>>(s[1]&63))&1)<<1 |
				((set[s[2]>>6]>>(s[2]&63))&1)<<2 |
				((set[s[3]>>6]>>(s[3]&63))&1)<<3 |
				((set[s[4]>>6]>>(s[4]&63))&1)<<4 |
				((set[s[5]>>6]>>(s[5]&63))&1)<<5 |
				((set[s[6]>>6]>>(s[6]&63))&1)<<6 |
				((set[s[7]>>6]>>(s[7]&63))&1)<<7) << (j & 63)
		}
		dst[wi] = w
		n += bits.OnesCount64(w)
	}
	if tail := col[nw*64:]; len(tail) > 0 {
		var w uint64
		for j, v := range tail {
			w |= ((set[v>>6] >> (v & 63)) & 1) << uint(j)
		}
		dst[nw] = w
		n += bits.OnesCount64(w)
	}
	return n
}

// byteRuns is a byte-coded leaf lowered to the runs of codes it selects:
// Equals one, Range and GreaterThan one (two if they straddle code 128), In
// the runs of its code set. It keeps the first two; more read the code set.
type byteRuns struct {
	n    int
	runs [2]codeRun
}

// add appends the run [lo, hi), cut at code 128; an empty run adds nothing.
func (b *byteRuns) add(lo, hi int) {
	if lo < 128 && hi > 128 {
		b.add(lo, 128)
		lo = 128
	}
	if lo >= hi {
		return
	}
	if b.n < len(b.runs) {
		const ones = 0x0101010101010101
		b.runs[b.n] = codeRun{uint64(lo&127) * ones, uint64((hi-1)&127+1) * ones, swarHigh * b2u(lo < 128)}
	}
	b.n++
}

// rangeRuns lowers the codes [lo, hi).
func rangeRuns(lo, hi int) (b byteRuns) {
	b.add(lo, hi)
	return b
}

// setRuns lowers a code set over a dictionary of size entries, adjacent
// codes merged into one run.
func setRuns(set []uint64, size int) (b byteRuns) {
	for lo := 0; lo < size; lo++ {
		hi := lo
		for hi < size && set[hi>>6]>>(hi&63)&1 != 0 {
			hi++
		}
		b.add(lo, hi)
		lo = hi
	}
	return b
}

// whereRuns selects the rows whose byte code lies in one of the runs; past
// two runs it tests set, the same codes one bit per code, with fillInWide.
func (t *Table) whereRuns(codes []uint8, b byteRuns, set []uint64) *Selection {
	if b.n == 0 {
		return t.newSel()
	}
	return t.fillSelection(func(sel *Selection, lo, hi int) int {
		dst, window := sel.words[lo/64:(hi+63)/64], codes[lo:hi]
		switch b.n {
		case 1:
			return fillRun(dst, window, b.runs[0])
		case 2:
			return fillTwoRuns(dst, window, b.runs[0], b.runs[1])
		}
		return fillInWide(dst, window, set)
	})
}

// selectEq selects the rows whose code is want, for codes wider than a byte.
func selectEq[C colstore.Code](t *Table, col []C, want C) *Selection {
	return t.fillSelection(func(sel *Selection, lo, hi int) int {
		return fillEqCodes(sel.words[lo/64:(hi+63)/64], col[lo:hi], want)
	})
}

// selectIn selects the rows whose code is in set, one bit per code.
func selectIn[C colstore.Code](t *Table, col []C, set []uint64) *Selection {
	return t.fillSelection(func(sel *Selection, lo, hi int) int {
		return fillInWide(sel.words[lo/64:(hi+63)/64], col[lo:hi], set)
	})
}

// whereEquals is the Equals leaf over a categorical or bool column: a value
// absent from the dictionary selects nothing; a byte-coded column is scanned
// as the run [code, code+1).
func (t *Table) whereEquals(q Equals) (*Selection, error) {
	c, err := t.categoricalColumn(q.Column)
	if err != nil {
		return nil, err
	}
	code, ok := c.codeOf[q.Value]
	switch {
	case !ok:
		return t.stamp(EmptySelection(t.rows)), nil
	case c.width == 1:
		return t.whereRuns(c.codes8, rangeRuns(int(code), int(code)+1), nil), nil
	case c.width == 2:
		return selectEq(t, c.codes16, uint16(code)), nil
	default:
		return selectEq(t, c.codes32, code), nil
	}
}

// whereIn is the In leaf, specialized per code width: a byte-coded column
// is scanned as the runs of its code set, a wider one against a bitset sized
// to its dictionary.
func (t *Table) whereIn(q In) (*Selection, error) {
	c, err := t.categoricalColumn(q.Column)
	if err != nil {
		return nil, err
	}
	set := make([]uint64, (len(c.dict)+63)/64)
	found := false
	for _, v := range q.Values {
		if code, ok := c.codeOf[v]; ok {
			set[code>>6] |= 1 << (code & 63)
			found = true
		}
	}
	switch {
	case !found:
		return t.stamp(EmptySelection(t.rows)), nil
	case c.width == 1:
		return t.whereRuns(c.codes8, setRuns(set, len(c.dict)), set), nil
	case c.width == 2:
		return selectIn(t, c.codes16, set), nil
	default:
		return selectIn(t, c.codes32, set), nil
	}
}

// whereRange is the Range leaf. On a coded column low <= v < high becomes
// lo <= code < hi, exactly: lo is the first value >= low, hi the first that
// is not < high (so a NaN bound, which no value satisfies, yields an empty
// range by itself), and values of one comparison value are neighbours.
func (t *Table) whereRange(q Range) (*Selection, error) {
	c, err := t.numericColumn(q.Column)
	if err != nil {
		return nil, err
	}
	if c.width != 0 {
		lo := sort.Search(len(c.values), func(i int) bool { return c.values[i] >= q.Low })
		hi := sort.Search(len(c.values), func(i int) bool { return !(c.values[i] < q.High) })
		return t.whereRuns(c.codes8, rangeRuns(lo, hi), nil), nil
	}
	if c.Type == Float64 {
		col := c.floats
		return t.fillSelection(func(sel *Selection, lo, hi int) int {
			return fillRangeFloats(sel.words[lo/64:(hi+63)/64], col[lo:hi], q.Low, q.High)
		}), nil
	}
	col := c.ints
	return t.fillSelection(func(sel *Selection, lo, hi int) int {
		return fillRangeInts(sel.words[lo/64:(hi+63)/64], col[lo:hi], q.Low, q.High)
	}), nil
}

// whereGreater is the GreaterThan leaf; on a coded column v > threshold
// becomes lo <= code with lo the first value above the threshold.
func (t *Table) whereGreater(q GreaterThan) (*Selection, error) {
	c, err := t.numericColumn(q.Column)
	if err != nil {
		return nil, err
	}
	if c.width != 0 {
		lo := sort.Search(len(c.values), func(i int) bool { return c.values[i] > q.Threshold })
		return t.whereRuns(c.codes8, rangeRuns(lo, len(c.values)), nil), nil
	}
	if c.Type == Float64 {
		col := c.floats
		return t.fillSelection(func(sel *Selection, lo, hi int) int {
			return fillGtFloats(sel.words[lo/64:(hi+63)/64], col[lo:hi], q.Threshold)
		}), nil
	}
	col := c.ints
	return t.fillSelection(func(sel *Selection, lo, hi int) int {
		return fillGtInts(sel.words[lo/64:(hi+63)/64], col[lo:hi], q.Threshold)
	}), nil
}
