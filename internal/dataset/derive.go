package dataset

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// WithColumn returns a new table containing all existing columns plus the
// given one, which must have the same number of rows. Existing columns are
// shared, not copied, and the table keeps the parent's pool and arena.
func (t *Table) WithColumn(c *Column) (*Table, error) {
	if c == nil {
		return nil, fmt.Errorf("dataset: nil column")
	}
	if t.HasColumn(c.Name) {
		return nil, fmt.Errorf("%w: %q", ErrColumnExists, c.Name)
	}
	if c.Len() != t.rows {
		return nil, fmt.Errorf("%w: column %q has %d rows, expected %d", ErrLengthMismatch, c.Name, c.Len(), t.rows)
	}
	cols := append(append([]*Column(nil), t.columns...), c)
	nt, err := NewTable(cols...)
	if err != nil {
		return nil, err
	}
	// Extended tables inherit the parent's execution pool and arena, so
	// deriving a column never silently unpins a pinned lineage.
	nt.pool.Store(t.pool.Load())
	nt.arena.Store(t.arena.Load())
	return nt, nil
}

// BinNumeric derives a categorical column from a numeric one by binning it
// into the given number of equal-width bins; labels look like
// "[18.0, 27.5)". The derived column makes numeric attributes usable with the
// categorical filter predicates and with AWARE's χ²-based default hypotheses.
func (t *Table) BinNumeric(column, newName string, bins int) (*Table, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("dataset: bins must be positive, got %d", bins)
	}
	vals, err := t.Floats(column)
	if err != nil {
		return nil, err
	}
	if len(vals) == 0 {
		return nil, ErrEmptyTable
	}
	min, max, _ := minMax(vals)
	if min == max {
		max = min + 1
	}
	width := (max - min) / float64(bins)
	labels := make([]string, bins)
	for b := 0; b < bins; b++ {
		labels[b] = fmt.Sprintf("[%s, %s)", trimFloat(min+float64(b)*width), trimFloat(min+float64(b+1)*width))
	}
	out := make([]string, len(vals))
	for i, v := range vals {
		idx := int((v - min) / width)
		if idx < 0 {
			idx = 0
		}
		if idx >= bins {
			idx = bins - 1
		}
		out[i] = labels[idx]
	}
	return t.WithColumn(NewCategoricalColumn(newName, out))
}

// QuantileBin derives a categorical column by splitting a numeric column at
// its sample quantiles into the given number of (approximately) equally
// populated bins, labelled "q1", "q2", ... Equal-frequency bins are the usual
// choice for skewed attributes such as income.
func (t *Table) QuantileBin(column, newName string, bins int) (*Table, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("dataset: bins must be positive, got %d", bins)
	}
	vals, err := t.Floats(column)
	if err != nil {
		return nil, err
	}
	if len(vals) == 0 {
		return nil, ErrEmptyTable
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	cuts := make([]float64, bins-1)
	for b := 1; b < bins; b++ {
		pos := float64(b) / float64(bins) * float64(len(sorted)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		frac := pos - float64(lo)
		cuts[b-1] = sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	out := make([]string, len(vals))
	for i, v := range vals {
		b := sort.SearchFloat64s(cuts, v)
		// SearchFloat64s returns the number of cut points <= v... adjust so
		// that values exactly equal to a cut fall into the lower bin.
		if b > 0 && v == cuts[b-1] {
			// keep as is: boundary values join the upper bin consistently
		}
		out[i] = "q" + strconv.Itoa(b+1)
	}
	return t.WithColumn(NewCategoricalColumn(newName, out))
}

// minMax is a tiny local helper mirroring stats.MinMax without the import.
func minMax(xs []float64) (min, max float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, true
}

// trimFloat formats a float with at most one decimal, dropping trailing ".0".
func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', 1, 64)
	if len(s) > 2 && s[len(s)-2:] == ".0" {
		return s[:len(s)-2]
	}
	return s
}
