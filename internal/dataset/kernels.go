package dataset

import (
	"encoding/binary"
	"math/bits"
	"sort"

	"aware/internal/colstore"
)

// This file is the tuned generation of the predicate leaf kernels — the
// default path behind Table.Where. Five techniques push them toward the
// hardware limit, each verified bit-identical to the generic kernels
// (Table.WhereGeneric, the PR-5 bodies in selection.go) by the differential
// tests in kernels_test.go and encoding_test.go:
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
//   - dict-width specialization: In over a narrow dictionary (<= 256
//     categories, every census-shaped column) tests membership against a
//     4-word bitset that lives in registers/L1; wider dictionaries use a
//     per-code bitset sized to the dictionary. Both replace the generic
//     kernel's per-row hash-map probe;
//   - compare codes, not values: a numeric column with at most 256 distinct
//     values (age, hours: categorical in disguise) is scanned through its
//     order-preserving byte dictionary (byteCodes in table.go), where
//     low <= v < high is lo <= code < hi, tested on eight rows per 64-bit
//     word by fillRangeBytes. A bool column is its own byte codes, so the
//     same kernel serves Equals/In over bools. Range and GreaterThan keep
//     the 8-byte kernels (fillRange*/fillGt*) for wide columns only.
//
// Every kernel writes all words covering its window (the bit accumulator
// naturally leaves tail bits zero), so tuned fills do not depend on
// pre-zeroed storage — though arena-recycled words are zeroed anyway for
// the generic kernels' sake.

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
// generic kernel and the row-at-a-time reference, so results stay
// bit-identical even for int64 values a float64 cannot represent.
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
func fillEqCodes(dst []uint64, col []uint32, want uint32) int {
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

// SWAR constants of fillRangeBytes: the high bit, the low seven bits and the
// low bit of each of a word's eight bytes.
const (
	swarHigh = 0x8080808080808080
	swarLow7 = 0x7f7f7f7f7f7f7f7f
	swarOnes = 0x0101010101010101
)

// fillRangeBytes writes the bitmap words for lo <= code < hi over a window of
// one-byte codes, 0 <= lo < hi <= 256: the scan behind Range and GreaterThan
// on a byte-encoded numeric column and behind Equals/In on a bool column
// (false is code 0, true code 1). Eight rows are tested per 64-bit word,
// without a per-byte branch or lane extraction:
//
//	y    = x - lo          per byte, mod 256 (borrows kept inside each byte)
//	ge   = carry out of y + (256-w) per byte, w = hi-lo: set when y >= w
//	bits = the eight "not ge" flags gathered into one byte by a multiply
//
// w = 256 (every code matches) needs no special case: 256-w is 0 and nothing
// carries. The little-endian load puts row j in byte 0, so flag k lands on
// bit k. The eight loads of a chunk are written out with constant shifts: as
// a loop over j with << (j&63) the kernel measured 0.75 ns/row against 0.45.
func fillRangeBytes(dst []uint64, codes []uint8, lo, hi int) int {
	w := uint64(hi - lo)
	a := uint64(lo) * swarOnes
	b := (256 - w) * swarOnes
	match := func(s []uint8) uint64 {
		x := binary.LittleEndian.Uint64(s)
		y := ((x | swarHigh) - (a &^ swarHigh)) ^ ((x ^ ^a) & swarHigh)
		ge := ((y & b) | ((y | b) & ((y & swarLow7) + (b & swarLow7)))) & swarHigh
		return (((^ge & swarHigh) >> 7) * 0x0102040810204080) >> 56
	}
	n := 0
	nw := len(codes) / 64
	for wi := 0; wi < nw; wi++ {
		chunk := codes[wi*64 : wi*64+64 : wi*64+64]
		word := match(chunk[0:8:8]) |
			match(chunk[8:16:16])<<8 |
			match(chunk[16:24:24])<<16 |
			match(chunk[24:32:32])<<24 |
			match(chunk[32:40:40])<<32 |
			match(chunk[40:48:48])<<40 |
			match(chunk[48:56:56])<<48 |
			match(chunk[56:64:64])<<56
		dst[wi] = word
		n += bits.OnesCount64(word)
	}
	if tail := codes[nw*64:]; len(tail) > 0 {
		var word uint64
		for j, c := range tail {
			word |= b2u(uint64(c)-uint64(lo) < w) << uint(j)
		}
		dst[nw] = word
		n += bits.OnesCount64(word)
	}
	return n
}

// fillInSmall is the narrow-dictionary In kernel: membership of a code in
// the wanted set is one shift out of a 4-word (256-bit) lookup table that
// fits in two cache lines. The (v>>6)&3 mask keeps the index provably in
// range, so the lut access carries no bounds check.
func fillInSmall(dst []uint64, col []uint32, lut *[4]uint64) int {
	n := 0
	nw := len(col) / 64
	for wi := 0; wi < nw; wi++ {
		chunk := col[wi*64 : wi*64+64 : wi*64+64]
		var w uint64
		for j := 0; j < 64; j += 8 {
			s := chunk[j : j+8 : j+8]
			w |= (((lut[(s[0]>>6)&3] >> (s[0] & 63)) & 1) |
				((lut[(s[1]>>6)&3]>>(s[1]&63))&1)<<1 |
				((lut[(s[2]>>6)&3]>>(s[2]&63))&1)<<2 |
				((lut[(s[3]>>6)&3]>>(s[3]&63))&1)<<3 |
				((lut[(s[4]>>6)&3]>>(s[4]&63))&1)<<4 |
				((lut[(s[5]>>6)&3]>>(s[5]&63))&1)<<5 |
				((lut[(s[6]>>6)&3]>>(s[6]&63))&1)<<6 |
				((lut[(s[7]>>6)&3]>>(s[7]&63))&1)<<7) << (j & 63)
		}
		dst[wi] = w
		n += bits.OnesCount64(w)
	}
	if tail := col[nw*64:]; len(tail) > 0 {
		var w uint64
		for j, v := range tail {
			w |= ((lut[(v>>6)&3] >> (v & 63)) & 1) << uint(j)
		}
		dst[nw] = w
		n += bits.OnesCount64(w)
	}
	return n
}

// fillInWide is the wide-dictionary In kernel: the wanted set is a bitset
// with one bit per dictionary code. Codes are storage-validated to be in
// range, so the per-row bitset access is a load+shift, never a hash probe.
func fillInWide(dst []uint64, col []uint32, set []uint64) int {
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

// smallDictMax is the dictionary width at or below which In uses the
// register-resident 256-bit lookup table.
const smallDictMax = 256

// whereCodeRange selects the rows whose one-byte code lies in [lo, hi); an
// empty range is the empty selection.
func (t *Table) whereCodeRange(codes []uint8, lo, hi int) *Selection {
	if hi <= lo {
		return t.newSel()
	}
	return t.fillSelection(func(sel *Selection, from, to int) int {
		return fillRangeBytes(sel.words[from/64:(to+63)/64], codes[from:to], lo, hi)
	})
}

// whereBoolsTuned is Equals/In over a bool column. A []bool is already one
// byte per row holding 0 or 1, so the wanted values lower to a code range —
// [1,2) true, [0,1) false, [0,2) both, [1,1) neither — with no dictionary.
func (t *Table) whereBoolsTuned(c *Column, values ...string) *Selection {
	lo, hi := 1, 1
	for _, v := range values {
		switch v {
		case "false":
			lo = 0
		case "true":
			hi = 2
		}
	}
	return t.whereCodeRange(colstore.BoolsAsBytes(c.bools), lo, hi)
}

// whereEqualsTuned is the tuned Equals leaf: the same column resolution and
// missing-value semantics as whereEquals, with fillEqCodes/fillRangeBytes as
// the scan.
func (t *Table) whereEqualsTuned(q Equals) (*Selection, error) {
	c, err := t.categoricalColumn(q.Column)
	if err != nil {
		return nil, err
	}
	if c.Type == Bool {
		return t.whereBoolsTuned(c, q.Value), nil
	}
	code, ok := c.codeOf[q.Value]
	if !ok {
		return t.stamp(EmptySelection(t.rows)), nil
	}
	col := c.codes
	return t.fillSelection(func(sel *Selection, lo, hi int) int {
		return fillEqCodes(sel.words[lo/64:(hi+63)/64], col[lo:hi], code)
	}), nil
}

// whereInTuned is the tuned In leaf, specialized per dictionary width.
func (t *Table) whereInTuned(q In) (*Selection, error) {
	c, err := t.categoricalColumn(q.Column)
	if err != nil {
		return nil, err
	}
	if c.Type == Bool {
		return t.whereBoolsTuned(c, q.Values...), nil
	}
	col := c.codes
	if len(c.dict) <= smallDictMax {
		var lut [4]uint64
		found := false
		for _, v := range q.Values {
			if code, ok := c.codeOf[v]; ok {
				lut[code>>6] |= 1 << (code & 63)
				found = true
			}
		}
		if !found {
			return t.stamp(EmptySelection(t.rows)), nil
		}
		return t.fillSelection(func(sel *Selection, lo, hi int) int {
			return fillInSmall(sel.words[lo/64:(hi+63)/64], col[lo:hi], &lut)
		}), nil
	}
	set := make([]uint64, (len(c.dict)+63)/64)
	found := false
	for _, v := range q.Values {
		if code, ok := c.codeOf[v]; ok {
			set[code>>6] |= 1 << (code & 63)
			found = true
		}
	}
	if !found {
		return t.stamp(EmptySelection(t.rows)), nil
	}
	return t.fillSelection(func(sel *Selection, lo, hi int) int {
		return fillInWide(sel.words[lo/64:(hi+63)/64], col[lo:hi], set)
	}), nil
}

// whereRangeTuned is the tuned Range leaf, with the generic kernel's
// type-resolution errors. On a byte-encoded column low <= v < high becomes
// lo <= code < hi, exactly: lo is the first dictionary entry >= low, hi the
// first that is not < high (so a NaN bound, which no value satisfies, yields
// an empty range by itself).
func (t *Table) whereRangeTuned(q Range) (*Selection, error) {
	c, err := t.numericColumn(q.Column)
	if err != nil {
		return nil, err
	}
	if enc := c.byteCodes(); enc.dict != nil {
		lo := sort.Search(len(enc.dict), func(i int) bool { return enc.dict[i] >= q.Low })
		hi := sort.Search(len(enc.dict), func(i int) bool { return !(enc.dict[i] < q.High) })
		return t.whereCodeRange(enc.codes, lo, hi), nil
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

// whereGreaterTuned is the tuned GreaterThan leaf; on a byte-encoded column
// v > threshold becomes lo <= code with lo the first dictionary entry above
// the threshold.
func (t *Table) whereGreaterTuned(q GreaterThan) (*Selection, error) {
	c, err := t.numericColumn(q.Column)
	if err != nil {
		return nil, err
	}
	if enc := c.byteCodes(); enc.dict != nil {
		lo := sort.Search(len(enc.dict), func(i int) bool { return enc.dict[i] > q.Threshold })
		return t.whereCodeRange(enc.codes, lo, len(enc.dict)), nil
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
