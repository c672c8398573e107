package dataset

import (
	"fmt"
	"sort"
)

// GroupCount is one bar of a categorical histogram.
type GroupCount struct {
	Value string
	Count int
}

// GroupBy returns the per-value counts of a categorical (or bool) column,
// sorted by value for determinism. It is the aggregation behind every bar
// chart in Figure 1.
func (t *Table) GroupBy(column string) ([]GroupCount, error) {
	counts, err := t.ValueCounts(column)
	if err != nil {
		return nil, err
	}
	out := make([]GroupCount, 0, len(counts))
	for v, c := range counts {
		out = append(out, GroupCount{Value: v, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out, nil
}

// Describe returns a short textual summary of the table, useful for CLI
// output.
func (t *Table) Describe() string {
	return fmt.Sprintf("Table{%d rows, %d columns: %v}", t.NumRows(), t.NumColumns(), t.ColumnNames())
}
