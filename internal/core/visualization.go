package core

import (
	"fmt"

	"aware/internal/dataset"
)

// Visualization models one chart on the AWARE canvas: a target attribute
// rendered as a histogram, optionally restricted by a chain of filter
// conditions inherited from the charts it is linked to (Figure 1).
type Visualization struct {
	// ID is the 1-based identifier within the session.
	ID int
	// Target is the attribute being visualized.
	Target string
	// Filter is the accumulated filter chain; nil means the whole dataset.
	Filter dataset.Predicate
	// HypothesisID is the hypothesis currently attached to this visualization
	// (0 when the visualization is purely descriptive).
	HypothesisID int

	// counts and support are the bars and the row count the rule-2 test of a
	// filtered chart counted on table, kept so that a rule-3 comparison on the
	// same (immutable) table reads them instead of recounting. An unfiltered
	// chart counts nothing, and its table is nil.
	counts  []int
	support int
	table   *dataset.Table
}

// Describe renders the visualization as "target | filter" (or just the target
// for unfiltered charts), the notation used in the paper's risk gauge.
func (v *Visualization) Describe() string {
	if v.Filter == nil {
		return v.Target
	}
	return fmt.Sprintf("%s | %s", v.Target, v.Filter.Describe())
}

// Histogram returns the per-category counts of the visualization over the
// given table, i.e. exactly the bars the chart would render. The filter is
// evaluated as a bitmap selection; no sub-table is materialized.
func (v *Visualization) Histogram(t *dataset.Table) ([]dataset.GroupCount, error) {
	view, err := t.View(v.Filter)
	if err != nil {
		return nil, err
	}
	defer view.Release()
	return view.GroupBy(v.Target)
}
