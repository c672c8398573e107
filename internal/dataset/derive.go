package dataset

import (
	"fmt"
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

// trimFloat formats a float with at most one decimal, dropping trailing ".0".
func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', 1, 64)
	if len(s) > 2 && s[len(s)-2:] == ".0" {
		return s[:len(s)-2]
	}
	return s
}
