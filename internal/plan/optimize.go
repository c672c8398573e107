package plan

import (
	"fmt"
	"strings"

	"aware/internal/dataset"
)

// Optimize rewrites a plan into its executable normal form:
//
//   - adjacent Filter nodes merge into one flat conjunction, inner predicate
//     first — the order the stacked filters apply in, which And's
//     short-circuit (and so which term's error surfaces) follows;
//   - filter conjuncts push through Join and Derive nodes down to the scan
//     that owns their columns (right-side conjuncts are rewritten back to the
//     unprefixed column names), shrinking both join sides before the hash
//     table is ever built.
//
// Pushdown is semantics-preserving for this plan algebra: filters commute
// with Derive (the row set is unchanged) and an inner equi-join's matches
// restricted afterwards equal the join of the restricted sides. Conjuncts
// whose columns cannot be attributed to exactly one side — or whose predicate
// type the rewriter does not know — stay above the join. The catalog is only
// consulted for scan schemas; when resolution fails the filter simply stays
// where it is and execution surfaces the real error.
func Optimize(n Node, cat Catalog) (Node, error) {
	switch node := n.(type) {
	case Scan, TableScan:
		return n, nil
	case Filter:
		in, err := Optimize(node.Input, cat)
		if err != nil {
			return nil, err
		}
		return pushFilter(in, node.Pred, cat), nil
	case Derive:
		in, err := Optimize(node.Input, cat)
		if err != nil {
			return nil, err
		}
		return Derive{Input: in, Name: node.Name, Expr: node.Expr}, nil
	case Join:
		l, err := Optimize(node.Left, cat)
		if err != nil {
			return nil, err
		}
		r, err := Optimize(node.Right, cat)
		if err != nil {
			return nil, err
		}
		node.Left, node.Right = l, r
		return node, nil
	case GroupBy:
		in, err := Optimize(node.Input, cat)
		if err != nil {
			return nil, err
		}
		node.Input = in
		return node, nil
	case nil:
		return nil, fmt.Errorf("plan: nil node")
	default:
		return nil, fmt.Errorf("plan: unknown node type %T", n)
	}
}

// pushFilter places pred as low over the already-optimized input as the
// column ownership of its conjuncts allows. A nil predicate is the identity.
func pushFilter(input Node, pred dataset.Predicate, cat Catalog) Node {
	if pred == nil {
		return input
	}
	switch in := input.(type) {
	case Filter:
		// Merge with the filter below; its predicate evaluates first.
		return pushFilter(in.Input, mergeAnd(in.Pred, pred), cat)
	case Derive:
		// Conjuncts that do not touch the derived column slide below it.
		var below, above []dataset.Predicate
		for _, term := range conjuncts(pred) {
			cols, ok := predicateColumns(term)
			if ok && !cols[in.Name] {
				below = append(below, term)
			} else {
				above = append(above, term)
			}
		}
		out := Node(in)
		if len(below) > 0 {
			out = Derive{Input: pushFilter(in.Input, andOf(below), cat), Name: in.Name, Expr: in.Expr}
		}
		if len(above) > 0 {
			out = Filter{Input: out, Pred: andOf(above)}
		}
		return out
	case Join:
		leftCols, lerr := schemaOf(in.Left, cat)
		rightCols, rerr := schemaOf(in.Right, cat)
		if lerr != nil || rerr != nil {
			return Filter{Input: input, Pred: pred}
		}
		var left, right, rest []dataset.Predicate
		for _, term := range conjuncts(pred) {
			switch side := joinSideOf(term, leftCols, rightCols, in.RightPrefix); side {
			case sideLeft:
				left = append(left, term)
			case sideRight:
				renamed, ok := renameColumns(term, func(c string) string {
					return strings.TrimPrefix(c, in.RightPrefix)
				})
				if !ok {
					rest = append(rest, term)
					continue
				}
				right = append(right, renamed)
			default:
				rest = append(rest, term)
			}
		}
		out := in
		if len(left) > 0 {
			out.Left = pushFilter(out.Left, andOf(left), cat)
		}
		if len(right) > 0 {
			out.Right = pushFilter(out.Right, andOf(right), cat)
		}
		if len(rest) > 0 {
			return Filter{Input: out, Pred: andOf(rest)}
		}
		return out
	default:
		return Filter{Input: input, Pred: pred}
	}
}

type joinSide int

const (
	sideNeither joinSide = iota
	sideLeft
	sideRight
)

// joinSideOf attributes one conjunct to the join side that owns every column
// it references. Right-side ownership means every column carries the right
// prefix and resolves in the right schema after stripping it. A conjunct that
// both sides could claim (possible before execution rejects the colliding
// schema) or that references unknown columns stays above the join.
func joinSideOf(term dataset.Predicate, leftCols, rightCols map[string]bool, prefix string) joinSide {
	cols, ok := predicateColumns(term)
	if !ok || len(cols) == 0 {
		return sideNeither
	}
	isLeft, isRight := true, true
	for c := range cols {
		if !leftCols[c] {
			isLeft = false
		}
		if !strings.HasPrefix(c, prefix) || !rightCols[strings.TrimPrefix(c, prefix)] {
			isRight = false
		}
	}
	switch {
	case isLeft && !isRight:
		return sideLeft
	case isRight && !isLeft:
		return sideRight
	default:
		return sideNeither
	}
}

// schemaOf resolves the output column set of a relational node.
func schemaOf(n Node, cat Catalog) (map[string]bool, error) {
	switch node := n.(type) {
	case Scan:
		if cat == nil {
			return nil, fmt.Errorf("plan: scan of %q requires a catalog", node.Dataset)
		}
		t, _, err := cat.Dataset(node.Dataset)
		if err != nil {
			return nil, err
		}
		return nameSet(t.ColumnNames()), nil
	case TableScan:
		if node.Table == nil {
			return nil, fmt.Errorf("plan: table scan without a table")
		}
		return nameSet(node.Table.ColumnNames()), nil
	case Filter:
		return schemaOf(node.Input, cat)
	case Derive:
		cols, err := schemaOf(node.Input, cat)
		if err != nil {
			return nil, err
		}
		cols[node.Name] = true
		return cols, nil
	case Join:
		left, err := schemaOf(node.Left, cat)
		if err != nil {
			return nil, err
		}
		right, err := schemaOf(node.Right, cat)
		if err != nil {
			return nil, err
		}
		for c := range right {
			left[node.RightPrefix+c] = true
		}
		return left, nil
	default:
		return nil, fmt.Errorf("plan: node %T has no relational schema", n)
	}
}

func nameSet(names []string) map[string]bool {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
}

// conjuncts flattens a predicate's top-level conjunction (recursively through
// nested Ands) into its terms. Any other predicate is its own single conjunct.
func conjuncts(p dataset.Predicate) []dataset.Predicate {
	and, ok := p.(dataset.And)
	if !ok {
		return []dataset.Predicate{p}
	}
	out := make([]dataset.Predicate, 0, len(and.Terms))
	for _, t := range and.Terms {
		out = append(out, conjuncts(t)...)
	}
	return out
}

// mergeAnd conjoins two predicates into one flat And, a-first (nil operands
// are identities), so a's conjuncts evaluate before b's.
func mergeAnd(a, b dataset.Predicate) dataset.Predicate {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return andOf(append(conjuncts(a), conjuncts(b)...))
}

// andOf rebuilds a predicate from conjuncts without wrapping single terms.
func andOf(terms []dataset.Predicate) dataset.Predicate {
	if len(terms) == 1 {
		return terms[0]
	}
	return dataset.And{Terms: terms}
}

// predicateColumns returns the set of columns a predicate references, or
// ok=false for predicate types the rewriter does not know (which then stay
// above joins rather than being pushed somewhere wrong).
func predicateColumns(p dataset.Predicate) (map[string]bool, bool) {
	cols := make(map[string]bool)
	if !collectColumns(p, cols) {
		return nil, false
	}
	return cols, true
}

func collectColumns(p dataset.Predicate, into map[string]bool) bool {
	switch q := p.(type) {
	case dataset.Equals:
		into[q.Column] = true
	case dataset.In:
		into[q.Column] = true
	case dataset.Range:
		into[q.Column] = true
	case dataset.GreaterThan:
		into[q.Column] = true
	case dataset.Not:
		return collectColumns(q.Inner, into)
	case dataset.And:
		for _, t := range q.Terms {
			if !collectColumns(t, into) {
				return false
			}
		}
	case dataset.Or:
		for _, t := range q.Terms {
			if !collectColumns(t, into) {
				return false
			}
		}
	default:
		return false
	}
	return true
}

// renameColumns rebuilds a predicate with every referenced column renamed, or
// ok=false for unknown predicate types.
func renameColumns(p dataset.Predicate, rename func(string) string) (dataset.Predicate, bool) {
	switch q := p.(type) {
	case dataset.Equals:
		q.Column = rename(q.Column)
		return q, true
	case dataset.In:
		q.Column = rename(q.Column)
		return q, true
	case dataset.Range:
		q.Column = rename(q.Column)
		return q, true
	case dataset.GreaterThan:
		q.Column = rename(q.Column)
		return q, true
	case dataset.Not:
		inner, ok := renameColumns(q.Inner, rename)
		if !ok {
			return nil, false
		}
		q.Inner = inner
		return q, true
	case dataset.And:
		terms, ok := renameAll(q.Terms, rename)
		if !ok {
			return nil, false
		}
		return dataset.And{Terms: terms}, true
	case dataset.Or:
		terms, ok := renameAll(q.Terms, rename)
		if !ok {
			return nil, false
		}
		return dataset.Or{Terms: terms}, true
	default:
		return nil, false
	}
}

func renameAll(terms []dataset.Predicate, rename func(string) string) ([]dataset.Predicate, bool) {
	out := make([]dataset.Predicate, len(terms))
	for i, t := range terms {
		r, ok := renameColumns(t, rename)
		if !ok {
			return nil, false
		}
		out[i] = r
	}
	return out, true
}
