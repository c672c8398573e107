package dataset

import (
	"fmt"
	"math/bits"
)

// This file is the tuned generation of the predicate leaf kernels — the
// default path behind Table.Where. Four techniques push them toward the
// hardware limit, each verified bit-identical to the generic kernels
// (Table.WhereGeneric, the PR-5 bodies in selection.go) by the differential
// tests in kernels_test.go:
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
//     kernel's per-row hash-map probe.
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

// fillEqBools writes the bitmap words for b == want over a bool window.
func fillEqBools(dst []uint64, col []bool, want bool) int {
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

// whereEqualsTuned is the tuned Equals leaf: the same column resolution and
// missing-value semantics as whereEquals, with fillEqCodes/fillEqBools as
// the scan.
func (t *Table) whereEqualsTuned(q Equals) (*Selection, error) {
	c, err := t.categoricalColumn(q.Column)
	if err != nil {
		return nil, err
	}
	if c.Type == Bool {
		switch q.Value {
		case "true", "false":
			want := q.Value == "true"
			col := c.bools
			return t.fillSelection(func(sel *Selection, lo, hi int) int {
				return fillEqBools(sel.words[lo/64:(hi+63)/64], col[lo:hi], want)
			}), nil
		default:
			return t.stamp(EmptySelection(t.rows)), nil
		}
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
		var wantTrue, wantFalse bool
		for _, v := range q.Values {
			switch v {
			case "true":
				wantTrue = true
			case "false":
				wantFalse = true
			}
		}
		switch {
		case wantTrue && wantFalse:
			return t.stamp(FullSelection(t.rows)), nil
		case wantTrue, wantFalse:
			col := c.bools
			return t.fillSelection(func(sel *Selection, lo, hi int) int {
				return fillEqBools(sel.words[lo/64:(hi+63)/64], col[lo:hi], wantTrue)
			}), nil
		default:
			return t.stamp(EmptySelection(t.rows)), nil
		}
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
// type-resolution errors.
func (t *Table) whereRangeTuned(q Range) (*Selection, error) {
	c, err := t.Column(q.Column)
	if err != nil {
		return nil, err
	}
	switch c.Type {
	case Float64:
		col := c.floats
		return t.fillSelection(func(sel *Selection, lo, hi int) int {
			return fillRangeFloats(sel.words[lo/64:(hi+63)/64], col[lo:hi], q.Low, q.High)
		}), nil
	case Int64:
		col := c.ints
		return t.fillSelection(func(sel *Selection, lo, hi int) int {
			return fillRangeInts(sel.words[lo/64:(hi+63)/64], col[lo:hi], q.Low, q.High)
		}), nil
	default:
		return nil, fmt.Errorf("%w: %s is %s, not numeric", ErrTypeMismatch, c.Name, c.Type)
	}
}

// whereGreaterTuned is the tuned GreaterThan leaf.
func (t *Table) whereGreaterTuned(q GreaterThan) (*Selection, error) {
	c, err := t.Column(q.Column)
	if err != nil {
		return nil, err
	}
	switch c.Type {
	case Float64:
		col := c.floats
		return t.fillSelection(func(sel *Selection, lo, hi int) int {
			return fillGtFloats(sel.words[lo/64:(hi+63)/64], col[lo:hi], q.Threshold)
		}), nil
	case Int64:
		col := c.ints
		return t.fillSelection(func(sel *Selection, lo, hi int) int {
			return fillGtInts(sel.words[lo/64:(hi+63)/64], col[lo:hi], q.Threshold)
		}), nil
	default:
		return nil, fmt.Errorf("%w: %s is %s, not numeric", ErrTypeMismatch, c.Name, c.Type)
	}
}
