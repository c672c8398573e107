package plan

import (
	"fmt"

	"aware/internal/dataset"
)

// Optimize rewrites a plan into its executable normal form: adjacent Filter
// nodes merge into one flat conjunction, inner predicate first — the order
// the stacked filters apply in, which And's short-circuit (and so which
// term's error surfaces) follows. A filter stays where the plan puts it: above
// a Join it restricts the joined rows, and pushing it below could change
// which rows the join sees and so whether it fans out (dataset.ErrJoinFansOut).
// The catalog is not consulted.
func Optimize(n Node, cat Catalog) (Node, error) {
	switch node := n.(type) {
	case Scan, TableScan:
		return n, nil
	case Filter:
		in, err := Optimize(node.Input, cat)
		if err != nil {
			return nil, err
		}
		return mergeFilter(in, node.Pred), nil
	case Derive:
		in, err := Optimize(node.Input, cat)
		if err != nil {
			return nil, err
		}
		node.Input = in
		return node, nil
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

// mergeFilter places pred over the already-optimized input, merged into the
// filter directly below when there is one. A nil predicate is the identity.
func mergeFilter(input Node, pred dataset.Predicate) Node {
	if pred == nil {
		return input
	}
	if in, ok := input.(Filter); ok {
		// Its predicate evaluates first.
		return Filter{Input: in.Input, Pred: mergeAnd(in.Pred, pred)}
	}
	return Filter{Input: input, Pred: pred}
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
