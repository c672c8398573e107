package dataset

import (
	"fmt"
	"math/bits"

	"aware/internal/colstore"
)

// This file is the two-column contingency kernel behind group-by hypotheses:
// CrossCounts tallies the selected rows of a view into a rows×cols matrix
// over the cross product of two attributes' category spaces. Categorical and
// bool columns contribute their full dictionary (zero rows included, so the
// matrix shape is a property of the table, not the selection); numeric
// columns are cut into equal-width bins spanning the full table's range via
// the memoized binAssignments, so a filtered cross-tab shares its axes with
// the population it is compared against. Each axis is a code column and a
// code → slot table, the row axis's pre-multiplied by the column count; one
// kernel per pair of code widths adds one at rslot[rc[row]] + cslot[cc[row]]
// per selected row, with no call per row, reduced by reduceInts.

// maxCrossCells bounds the contingency matrix: two high-cardinality columns
// crossed together would otherwise allocate accumulators of unbounded width.
const maxCrossCells = 1 << 20

// CrossTab is a contingency table: Counts[i][j] is the number of selected
// rows whose row-attribute takes RowLabels[i] and whose column-attribute
// takes ColLabels[j].
type CrossTab struct {
	RowLabels []string
	ColLabels []string
	Counts    [][]int
}

// crossAxis is one attribute of a cross-tab as the kernel reads it.
type crossAxis struct {
	labels []string
	codes  any     // each row's code: a []uint8, []uint16 or []uint32
	slot   []int32 // each code's slot; the caller's to modify
}

// crossAxis resolves one attribute of a cross-tab: categorical columns use
// their dictionary codes, bool columns their false/true codes, numeric
// columns the memoized equal-width bin assignment (bins bins over the full
// table's range, labelled with their edges, which are memoized with it):
// a coded column's codes through binOf, a wide column's assign as codes.
func (t *Table) crossAxis(name string, bins int) (crossAxis, error) {
	c, err := t.Column(name)
	if err != nil {
		return crossAxis{}, err
	}
	switch c.Type {
	case Categorical, Bool:
		var codes any = c.codes32
		switch c.width {
		case 1:
			codes = c.codes8
		case 2:
			codes = c.codes16
		}
		return crossAxis{labels: c.dict, codes: codes, slot: identity(len(c.dict))}, nil
	case Float64, Int64:
		if bins <= 0 {
			return crossAxis{}, fmt.Errorf("dataset: numeric cross-tab attribute %q requires a positive bin count, got %d", name, bins)
		}
		ba, err := t.binAssignments(name, bins)
		if err != nil {
			return crossAxis{}, err
		}
		if ba.codes != nil {
			return crossAxis{labels: ba.labels, codes: ba.codes, slot: append([]int32(nil), ba.binOf...)}, nil
		}
		return crossAxis{labels: ba.labels, codes: ba.assign, slot: identity(bins)}, nil
	default:
		return crossAxis{}, fmt.Errorf("%w: %s is %s", ErrTypeMismatch, c.Name, c.Type)
	}
}

// identity returns the slot table of n codes that are their own slots.
func identity(n int) []int32 {
	slot := make([]int32, n)
	for i := range slot {
		slot[i] = int32(i)
	}
	return slot
}

// crossCount adds one to acc[rslot[rc[row]]+cslot[cc[row]]] for every
// selected row in the word-aligned range [lo, hi).
func crossCount[R, C colstore.Code](s *Selection, lo, hi int, rc []R, rslot []int32, cc []C, cslot []int32, acc []int) {
	for wi := lo / 64; wi < (hi+63)/64; wi++ {
		base := wi * 64
		for w := s.words[wi]; w != 0; w &= w - 1 {
			row := base + bits.TrailingZeros64(w)
			acc[rslot[rc[row]]+cslot[cc[row]]]++
		}
	}
}

// crossWidths runs crossCount for the column axis's code width.
func crossWidths[R colstore.Code](s *Selection, lo, hi int, rc []R, rslot []int32, col crossAxis, acc []int) {
	switch cc := col.codes.(type) {
	case []uint8:
		crossCount(s, lo, hi, rc, rslot, cc, col.slot, acc)
	case []uint16:
		crossCount(s, lo, hi, rc, rslot, cc, col.slot, acc)
	case []uint32:
		crossCount(s, lo, hi, rc, rslot, cc, col.slot, acc)
	}
}

// CrossCounts tallies the selected rows into the contingency table of two
// attributes. bins sizes the equal-width binning of numeric attributes
// (categorical and bool attributes ignore it).
func (v View) CrossCounts(rowAttr, colAttr string, bins int) (*CrossTab, error) {
	ra, err := v.table.crossAxis(rowAttr, bins)
	if err != nil {
		return nil, err
	}
	ca, err := v.table.crossAxis(colAttr, bins)
	if err != nil {
		return nil, err
	}
	rw, cw := len(ra.labels), len(ca.labels)
	if rw == 0 || cw == 0 {
		return nil, ErrEmptyTable
	}
	if rw*cw > maxCrossCells {
		return nil, fmt.Errorf("dataset: cross-tab of %q × %q spans %d cells, more than the %d supported", rowAttr, colAttr, rw*cw, maxCrossCells)
	}
	for i := range ra.slot {
		ra.slot[i] *= int32(cw)
	}
	flat := reduceInts(v.table.execPool(), v.sel.n, rw*cw, func(lo, hi int, acc []int) {
		switch rc := ra.codes.(type) { // once per morsel, not per row
		case []uint8:
			crossWidths(v.sel, lo, hi, rc, ra.slot, ca, acc)
		case []uint16:
			crossWidths(v.sel, lo, hi, rc, ra.slot, ca, acc)
		case []uint32:
			crossWidths(v.sel, lo, hi, rc, ra.slot, ca, acc)
		}
	})
	counts := make([][]int, rw)
	for i := range counts {
		counts[i] = flat[i*cw : (i+1)*cw]
	}
	return &CrossTab{RowLabels: ra.labels, ColLabels: ca.labels, Counts: counts}, nil
}
