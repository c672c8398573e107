package dataset

import (
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
//     codes — is a list of runs of codes [lo, hi) (byteRuns). fillRuns
//     tests one or two runs on sixteen rows per SSE2 compare on amd64
//     (kernels_amd64.s: lo <= code < hi is the one unsigned byte compare
//     code-lo <= hi-lo-1), on eight rows per 64-bit word elsewhere and
//     under -tags purego (kernels_generic.go); more runs read the per-code
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

// codeRange is the byte codes [lo, hi), 0 <= lo < hi <= 256.
type codeRange struct{ lo, hi int }

// byteRuns is a byte-coded leaf lowered to the runs of codes it selects:
// Equals, Range and GreaterThan one, In the runs of its code set. It keeps
// the first two; more read the code set. Each build lowers the runs to the
// constants of its own kernel in fillRuns.
type byteRuns struct {
	n    int
	runs [2]codeRange
}

// add appends the run [lo, hi); an empty run adds nothing.
func (b *byteRuns) add(lo, hi int) {
	if lo >= hi {
		return
	}
	if b.n < len(b.runs) {
		b.runs[b.n] = codeRange{lo, hi}
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
		return fillRuns(sel.words[lo/64:(hi+63)/64], codes[lo:hi], b, set)
	})
}

// fillRunsTail writes the word of a window's last len(tail) < 64 rows: the
// rows whose code lies in one of b's runs, of which there are one or two,
// tested row by row. An empty tail writes nothing. Both builds' fillRuns end
// with it.
func fillRunsTail(dst []uint64, tail []uint8, b byteRuns) int {
	if len(tail) == 0 {
		return 0
	}
	r, q := b.runs[0], b.runs[b.n-1]
	var word uint64
	for j, c := range tail {
		x := int(c)
		word |= (b2u(r.lo <= x && x < r.hi) | b2u(q.lo <= x && x < q.hi)) << uint(j)
	}
	dst[0] = word
	return bits.OnesCount64(word)
}

// whereSet selects the rows of an unmapped coded column whose code is in
// set, one bit per code: byte codes as the runs of the set, wider ones
// against the bitset.
func (t *Table) whereSet(c *Column, set []uint64) *Selection {
	switch c.width {
	case 1:
		return t.whereRuns(c.codes8, setRuns(set, c.dictLen()), set)
	case 2:
		return selectIn(t, c.codes16, set)
	default:
		return selectIn(t, c.codes32, set)
	}
}

// whereMapped selects the rows of a mapped column whose own code satisfies
// in: the source codes that map to such a code become a set over the
// source's codes, which whereSet scans.
func (t *Table) whereMapped(c *Column, in func(code int) bool) *Selection {
	set := make([]uint64, (len(c.via)+63)/64)
	found := false
	for k, code := range c.via {
		if in(int(code)) {
			set[k>>6] |= 1 << (k & 63)
			found = true
		}
	}
	if !found {
		return t.stamp(EmptySelection(t.rows))
	}
	return t.whereSet(c.src, set)
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
// as the run [code, code+1), a mapped one as the source codes mapping to it.
func (t *Table) whereEquals(q Equals) (*Selection, error) {
	c, err := t.categoricalColumn(q.Column)
	if err != nil {
		return nil, err
	}
	code, ok := c.codeOf[q.Value]
	switch {
	case !ok:
		return t.stamp(EmptySelection(t.rows)), nil
	case c.via != nil:
		return t.whereMapped(c, func(k int) bool { return k == int(code) }), nil
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
// to its dictionary, a mapped one as the source codes mapping into the set.
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
	case c.via != nil:
		return t.whereMapped(c, func(k int) bool { return set[k>>6]>>(k&63)&1 != 0 }), nil
	default:
		return t.whereSet(c, set), nil
	}
}

// whereRange is the Range leaf. On a coded column low <= v < high becomes
// lo <= code < hi, exactly: lo is the first value >= low, hi the first that
// is not < high (so a NaN bound, which no value satisfies, yields an empty
// range by itself), and values of one comparison value are neighbours. A
// mapped column selects the source codes mapping into the range.
func (t *Table) whereRange(q Range) (*Selection, error) {
	c, err := t.numericColumn(q.Column)
	if err != nil {
		return nil, err
	}
	if c.width != 0 {
		lo := sort.Search(len(c.values), func(i int) bool { return c.values[i] >= q.Low })
		hi := sort.Search(len(c.values), func(i int) bool { return !(c.values[i] < q.High) })
		if c.via != nil {
			return t.whereMapped(c, func(k int) bool { return lo <= k && k < hi }), nil
		}
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
		if c.via != nil {
			return t.whereMapped(c, func(k int) bool { return lo <= k }), nil
		}
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
