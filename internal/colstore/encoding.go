package colstore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// This file decides how a column is stored, once, for every path that builds
// one: the constructors (in-memory tables), RowBuilder (CSV, JSONL and typed
// ingestion) and, through validate, the snapshot loader, which accepts only
// what they produce. A categorical column's codes take the narrowest width
// that indexes its dictionary (codeWidth). A numeric column holding at most
// MaxValues distinct bit patterns and no NaN is stored as byte codes into its
// sorted values (valueTally), one byte per row instead of eight. Berkholz et
// al.'s linear preprocessing, done at build time rather than at the first
// query.

// MaxValues is the most distinct values a numeric column stores as byte
// codes: what one byte indexes.
const MaxValues = 256

// Code is the element type of a column's dictionary codes, at any width.
type Code interface{ ~uint8 | ~uint16 | ~uint32 }

const (
	signBit = 1 << 63
	infBits = 0x7ff0000000000000 // a float64 pattern above it, sign aside, is a NaN

	// tallySlots sizes valueTally's open-addressed table: a power of two, four
	// times MaxValues, so probes stay short.
	tallySlotBits = 10
	tallySlots    = 1 << tallySlotBits
)

// codeWidth returns the byte width of the codes of an n-entry dictionary: the
// narrowest of 1, 2 and 4 that indexes every entry.
func codeWidth(n int) int {
	switch {
	case n <= 1<<8:
		return 1
	case n <= 1<<16:
		return 2
	default:
		return 4
	}
}

func isNaN(b uint64) bool { return b&^signBit > infBits }

// orderKey maps the bit pattern of a non-NaN value of a numeric kind to a key
// whose unsigned order is the value order: signed order for an int64, the
// IEEE total order for a float64, which puts −0 just below +0. Values that
// compare equal are therefore neighbours in any dictionary sorted by it.
func orderKey(k Kind, b uint64) uint64 {
	switch {
	case k == Int64:
		return b ^ signBit
	case b&signBit != 0:
		return ^b
	default:
		return b | signBit
	}
}

// valueTally is the running distinct-value tally of a numeric column, keyed
// by bit pattern and capped at MaxValues entries. A row's provisional code is
// the order in which its pattern first appeared.
type valueTally struct {
	kind  Kind
	slots [tallySlots]uint16 // 1 + the provisional code of the slot's pattern; 0 is a free slot
	keys  [MaxValues]uint64  // the patterns, in order of first appearance
	n     int
	wide  bool // a NaN or a pattern past MaxValues was seen
}

// add tallies one row's pattern and returns its provisional code, or false
// once the column is wide.
func (t *valueTally) add(b uint64) (uint8, bool) {
	if t.wide {
		return 0, false
	}
	h := (b * 0x9e3779b97f4a7c15) >> (64 - tallySlotBits) // Fibonacci hashing
	for at := t.slots[h]; at != 0; at = t.slots[h] {
		if t.keys[at-1] == b {
			return uint8(at - 1), true
		}
		h = (h + 1) % tallySlots
	}
	if t.n == MaxValues || t.kind == Float64 && isNaN(b) {
		t.wide = true
		return 0, false
	}
	t.keys[t.n] = b
	t.n++
	t.slots[h] = uint16(t.n)
	return uint8(t.n - 1), true
}

// seal fixes a coded column's dictionary — its patterns ascending by value —
// and the final code of each provisional one. A wide column, or one without a
// row, has no dictionary: nil.
func (t *valueTally) seal() ([]uint64, [MaxValues]uint8) {
	var final [MaxValues]uint8
	if t.wide || t.n == 0 {
		return nil, final
	}
	byValue := func(a, b uint64) int { return cmp.Compare(orderKey(t.kind, a), orderKey(t.kind, b)) }
	dict := slices.Clone(t.keys[:t.n])
	slices.SortFunc(dict, byValue)
	for code, b := range t.keys[:t.n] {
		rank, _ := slices.BinarySearchFunc(dict, b, byValue)
		final[code] = uint8(rank)
	}
	return dict, final
}

// encodeNumeric stores the uncoded numeric column c, given its rows' bit
// patterns, as byte codes when it qualifies: one tally pass that writes each
// row's provisional code, then one pass over the bytes that renames them to
// the sorted dictionary's. Any other column is returned as it is.
func encodeNumeric(c *Column, rows []uint64) *Column {
	t := valueTally{kind: c.Kind}
	codes := make([]uint8, len(rows))
	for i, b := range rows {
		code, ok := t.add(b)
		if !ok {
			return c
		}
		codes[i] = code
	}
	dict, final := t.seal()
	if dict == nil {
		return c
	}
	for i, code := range codes {
		codes[i] = final[code]
	}
	c.Width, c.Values, c.Codes8, c.Floats, c.Ints = 1, dict, codes, nil, nil
	return c
}

// NewMappedFloatColumn stores the rows perCode[codes[i]] as NewFloatColumn
// would, tallying only the codes that occur (counts[k] > 0) and writing the
// codes in one pass through the tally's rename composed with perCode. It also
// returns how many rows hold each code of the stored column, counts summed
// through the rename — nil when the column is stored wide.
func NewMappedFloatColumn(name string, perCode []float64, codes []uint8, counts []int) (*Column, []int) {
	t := valueTally{kind: Float64}
	var lut [MaxValues]uint8
	for k, v := range perCode {
		if counts[k] > 0 {
			lut[k], _ = t.add(math.Float64bits(v))
		}
	}
	dict, final := t.seal()
	if dict == nil { // a NaN occurs, or no row does
		rows := make([]float64, len(codes))
		for i, k := range codes {
			rows[i] = perCode[k]
		}
		return &Column{Name: name, Kind: Float64, Floats: rows}, nil
	}
	for k := range lut {
		lut[k] = final[lut[k]]
	}
	stored := make([]int, len(dict))
	for k, n := range counts {
		stored[lut[k]] += n
	}
	out := make([]uint8, len(codes))
	for i, k := range codes {
		out[i] = lut[k]
	}
	return &Column{Name: name, Kind: Float64, Width: 1, Values: dict, Codes8: out}, stored
}

// makeCodes returns n codes of one width, code(i) for row i.
func makeCodes[C Code](n int, code func(i int) uint32) []C {
	out := make([]C, n)
	for i := range out {
		out[i] = C(code(i))
	}
	return out
}

// firstCodeOutside returns the first row of a column whose code is not below
// n, or -1; an uncoded column has none.
func firstCodeOutside(c *Column, n int) int {
	switch c.Width {
	case 0:
		return -1
	case 1:
		return firstByteOutside(c.Codes8, n)
	case 2:
		return firstOutside(c.Codes16, n)
	default:
		return firstOutside(c.Codes32, n)
	}
}

// firstByteOutside is firstOutside eight bytes at a time: x >= n exactly when
// x + (256-n) carries out of its byte, computed per byte without crossing
// into the next. No byte reaches n = 256; n = 0 and the tail go scalar.
func firstByteOutside(codes []uint8, n int) int {
	const high, low7 = 0x8080808080808080, 0x7f7f7f7f7f7f7f7f
	if n >= MaxValues {
		return -1
	}
	i, b := 0, uint64(MaxValues-n)*0x0101010101010101
	if n > 0 {
		for ; i+8 <= len(codes); i += 8 {
			x := binary.LittleEndian.Uint64(codes[i : i+8 : i+8])
			if carry := ((x & b) | ((x | b) & ((x & low7) + (b & low7)))) & high; carry != 0 {
				return i + bits.TrailingZeros64(carry)/8
			}
		}
	}
	if j := firstOutside(codes[i:], n); j >= 0 {
		return i + j
	}
	return -1
}

func firstOutside[C Code](codes []C, n int) int {
	for i, code := range codes {
		if int(code) >= n {
			return i
		}
	}
	return -1
}

// Encoding names how the column is stored, as awarestore inspect prints it:
// "codes=u8 dict=6" for a categorical column, "codes=u8 values=73" for a
// coded numeric one and "wide" for one that stores its rows.
func (c *Column) Encoding() string {
	switch {
	case c.Width == 0:
		return "wide"
	case c.Kind == Categorical:
		return fmt.Sprintf("codes=u%d dict=%d", 8*c.Width, len(c.Dict))
	default:
		return fmt.Sprintf("codes=u%d values=%d", 8*c.Width, len(c.Values))
	}
}
