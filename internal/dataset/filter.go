package dataset

import (
	"fmt"
	"strings"
)

// Predicate is a row-level filter over a table: one of the seven types below
// (Equals, In, Range, GreaterThan, Not, And, Or), and no other. The set is
// closed — isPredicate is unexported — so Table.Where, the JSON codec and the
// selection cache's key each handle every predicate there is.
type Predicate interface {
	// Describe returns a human-readable rendering such as "salary = >50k".
	Describe() string
	isPredicate()
}

// Equals matches rows whose categorical (or bool) column equals Value.
type Equals struct {
	Column string
	Value  string
}

// Describe implements Predicate.
func (e Equals) Describe() string { return fmt.Sprintf("%s = %s", e.Column, e.Value) }

// In matches rows whose categorical column equals any of Values.
//
// Build In with NewIn where possible: the constructor sorts Values into the
// canonical order, so Describe, the JSON encoding and cache keys of
// semantically equal predicates compare equal. A plain In{...} literal still
// works — Describe and the JSON codec sort on the fly.
type In struct {
	Column string
	Values []string
}

// NewIn builds an In predicate with sorted values.
func NewIn(column string, values ...string) In {
	return In{Column: column, Values: sortedStrings(values)}
}

// Describe implements Predicate. Values render in sorted order so that
// semantically equal predicates describe identically.
func (p In) Describe() string {
	return fmt.Sprintf("%s in {%s}", p.Column, strings.Join(sortedStrings(p.Values), ", "))
}

// Range matches rows whose numeric column lies in [Low, High). Use math.Inf
// for open ends.
type Range struct {
	Column string
	Low    float64
	High   float64
}

// Describe implements Predicate.
func (r Range) Describe() string { return fmt.Sprintf("%s in [%g, %g)", r.Column, r.Low, r.High) }

// GreaterThan matches rows whose numeric column exceeds Threshold.
type GreaterThan struct {
	Column    string
	Threshold float64
}

// Describe implements Predicate.
func (g GreaterThan) Describe() string { return fmt.Sprintf("%s > %g", g.Column, g.Threshold) }

// Not negates a predicate. AWARE's heuristic rule 3 (comparing a selection
// against its complement, the "dashed line" in Figure 1) is expressed with
// Not.
type Not struct {
	Inner Predicate
}

// Describe implements Predicate.
func (n Not) Describe() string { return fmt.Sprintf("not(%s)", n.Inner.Describe()) }

// And is the conjunction of predicates; an empty And matches every row.
// Chained visualizations (Figure 1 D–F) accumulate their filters into an And.
type And struct {
	Terms []Predicate
}

// Describe implements Predicate.
func (a And) Describe() string {
	if len(a.Terms) == 0 {
		return "true"
	}
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.Describe()
	}
	return strings.Join(parts, " and ")
}

// Or is the disjunction of predicates; an empty Or matches no row.
type Or struct {
	Terms []Predicate
}

// Describe implements Predicate.
func (o Or) Describe() string {
	if len(o.Terms) == 0 {
		return "false"
	}
	parts := make([]string, len(o.Terms))
	for i, t := range o.Terms {
		parts[i] = t.Describe()
	}
	return "(" + strings.Join(parts, " or ") + ")"
}

func (Equals) isPredicate()      {}
func (In) isPredicate()          {}
func (Range) isPredicate()       {}
func (GreaterThan) isPredicate() {}
func (Not) isPredicate()         {}
func (And) isPredicate()         {}
func (Or) isPredicate()          {}

// Filter returns the sub-table of rows matching the predicate. A nil
// predicate matches every row (returning the table itself). The predicate is
// compiled through the vectorized kernels (Table.Where); callers that only
// need counts or histograms should prefer Table.View, which skips the copy
// entirely.
func (t *Table) Filter(p Predicate) (*Table, error) {
	if p == nil {
		return t, nil
	}
	sel, err := t.Where(p)
	if err != nil {
		return nil, err
	}
	idx := sel.Indices()
	sel.Release() // private compile, exclusively owned
	return t.Select(idx)
}
