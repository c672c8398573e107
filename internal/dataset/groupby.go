package dataset

import "fmt"

// This file is the two-column contingency kernel behind group-by hypotheses:
// CrossCounts tallies the selected rows of a view into a rows×cols matrix
// over the cross product of two attributes' category spaces. Categorical and
// bool columns contribute their full dictionary (zero rows included, so the
// matrix shape is a property of the table, not the selection); numeric
// columns are cut into equal-width bins spanning the full table's range via
// the memoized binAssignments, so a filtered cross-tab shares its axes with
// the population it is compared against. The tally itself is one combined
// code per row (rowCode*cols + colCode) reduced morsel-parallel in morsel
// order — deterministic on any pool.

// maxCrossCells bounds the contingency matrix: two high-cardinality columns
// crossed together would otherwise allocate per-morsel accumulators of
// unbounded width.
const maxCrossCells = 1 << 20

// CrossTab is a contingency table: Counts[i][j] is the number of selected
// rows whose row-attribute takes RowLabels[i] and whose column-attribute
// takes ColLabels[j].
type CrossTab struct {
	RowLabels []string
	ColLabels []string
	Counts    [][]int
}

// axisCodes is one attribute's per-row code extractor plus its label space.
type axisCodes struct {
	labels []string
	at     func(row int) int
}

// crossAxis resolves one attribute of a cross-tab: categorical columns use
// their dictionary codes, bool columns the false/true encoding, numeric
// columns the memoized equal-width bin assignment (bins bins over the full
// table's range, labelled with their edges, which are memoized with it).
func (t *Table) crossAxis(name string, bins int) (axisCodes, error) {
	c, err := t.Column(name)
	if err != nil {
		return axisCodes{}, err
	}
	switch c.Type {
	case Categorical:
		return axisCodes{labels: c.dict, at: func(row int) int { return int(c.codes[row]) }}, nil
	case Bool:
		return axisCodes{labels: []string{"false", "true"}, at: func(row int) int {
			if c.bools[row] {
				return 1
			}
			return 0
		}}, nil
	case Float64, Int64:
		if bins <= 0 {
			return axisCodes{}, fmt.Errorf("dataset: numeric cross-tab attribute %q requires a positive bin count, got %d", name, bins)
		}
		ba, err := t.binAssignments(name, bins)
		if err != nil {
			return axisCodes{}, err
		}
		if ba.codes != nil {
			return axisCodes{labels: ba.labels, at: func(row int) int { return int(ba.binOf[ba.codes[row]]) }}, nil
		}
		return axisCodes{labels: ba.labels, at: func(row int) int { return int(ba.assign[row]) }}, nil
	default:
		return axisCodes{}, fmt.Errorf("%w: %s is %s", ErrTypeMismatch, c.Name, c.Type)
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
	flat := reduceInts(v.table.execPool(), v.sel.n, rw*cw, func(lo, hi int, acc []int) {
		v.sel.forEachIn(lo, hi, func(row int) { acc[ra.at(row)*cw+ca.at(row)]++ })
	})
	counts := make([][]int, rw)
	for i := range counts {
		counts[i] = flat[i*cw : (i+1)*cw]
	}
	return &CrossTab{RowLabels: ra.labels, ColLabels: ca.labels, Counts: counts}, nil
}
