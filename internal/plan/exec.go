package plan

import (
	"fmt"

	"aware/internal/dataset"
)

// Result is the output of running a plan: a View over the produced rows for
// relational roots, or a contingency table when the root is a GroupBy.
type Result struct {
	View  dataset.View
	Cross *dataset.CrossTab
}

// Run optimizes and executes a plan. Scan-level filters resolve through the
// scanned dataset's SelectionCache, so the cost of re-exploring a predicate
// is the cache lookup, not a rescan. The catalog may be nil for plans built
// purely from TableScan nodes.
func Run(n Node, cat Catalog) (Result, error) {
	opt, err := Optimize(n, cat)
	if err != nil {
		return Result{}, err
	}
	if gb, ok := opt.(GroupBy); ok {
		in, err := exec(gb.Input, cat)
		if err != nil {
			return Result{}, err
		}
		v, err := dataset.NewView(in.table, in.sel)
		if err != nil {
			return Result{}, err
		}
		bins := gb.Bins
		if bins <= 0 {
			bins = DefaultBins
		}
		ct, err := v.CrossCounts(gb.RowAttr, gb.ColAttr, bins)
		v.Release()
		if err != nil {
			return Result{}, err
		}
		return Result{Cross: ct}, nil
	}
	out, err := exec(opt, cat)
	if err != nil {
		return Result{}, err
	}
	v, err := dataset.NewView(out.table, out.sel)
	if err != nil {
		return Result{}, err
	}
	return Result{View: v}, nil
}

// execOut is one executed subtree: a table, the selected rows over it, and —
// while the lineage is still a pure cached scan plus filters — the scan's
// cache together with the predicate applied through it so far. Derives and
// joins produce fresh tables and clear the cache lineage. The selection is a
// reference the consuming node releases once it has read it, so a cached
// filter bitmap goes back to the table's arena after its eviction.
type execOut struct {
	table *dataset.Table
	sel   *dataset.Selection
	cache *dataset.SelectionCache
	pred  dataset.Predicate
}

// exec runs one relational subtree bottom-up.
func exec(n Node, cat Catalog) (execOut, error) {
	switch node := n.(type) {
	case Scan:
		if cat == nil {
			return execOut{}, fmt.Errorf("plan: scan of %q requires a catalog", node.Dataset)
		}
		t, c, err := cat.Dataset(node.Dataset)
		if err != nil {
			return execOut{}, err
		}
		if t == nil || c == nil {
			return execOut{}, fmt.Errorf("plan: catalog resolved %q without a table or cache", node.Dataset)
		}
		sel, err := c.Where(nil)
		if err != nil {
			return execOut{}, err
		}
		return execOut{table: t, sel: sel, cache: c}, nil

	case TableScan:
		t, c := node.Table, node.Cache
		if c != nil {
			if t == nil {
				t = c.Table()
			} else if c.Table() != t {
				return execOut{}, fmt.Errorf("plan: table scan cache is bound to a different table")
			}
			sel, err := c.Where(nil)
			if err != nil {
				return execOut{}, err
			}
			return execOut{table: t, sel: sel, cache: c}, nil
		}
		if t == nil {
			return execOut{}, fmt.Errorf("plan: table scan without a table")
		}
		return execOut{table: t, sel: dataset.FullSelection(t.NumRows())}, nil

	case Filter:
		in, err := exec(node.Input, cat)
		if err != nil {
			return execOut{}, err
		}
		if node.Pred == nil {
			return in, nil
		}
		if in.cache != nil {
			// Still on the cached-scan lineage: resolve the accumulated
			// conjunction through the cache, keyed on the whole conjunction.
			combined := mergeAnd(in.pred, node.Pred)
			sel, err := in.cache.Where(combined)
			if err != nil {
				return execOut{}, err
			}
			in.sel.Release()
			return execOut{table: in.table, sel: sel, cache: in.cache, pred: combined}, nil
		}
		// Post-derive/post-join table: compile cold and intersect with the
		// rows already selected.
		ts, err := in.table.Where(node.Pred)
		if err != nil {
			return execOut{}, err
		}
		if in.sel.Count() == in.sel.Len() {
			in.sel.Release()
			return execOut{table: in.table, sel: ts}, nil
		}
		sel := in.sel.And(ts)
		ts.Release()
		in.sel.Release()
		return execOut{table: in.table, sel: sel}, nil

	case Derive:
		in, err := exec(node.Input, cat)
		if err != nil {
			return execOut{}, err
		}
		nt, err := in.table.Derive(node.Name, node.Expr)
		if err != nil {
			return execOut{}, err
		}
		// The derived table has the same rows, so the input's selection
		// carries over unchanged; the cache lineage does not (it is bound to
		// the old table).
		return execOut{table: nt, sel: in.sel}, nil

	case Join:
		l, err := exec(node.Left, cat)
		if err != nil {
			return execOut{}, err
		}
		r, err := exec(node.Right, cat)
		if err != nil {
			return execOut{}, err
		}
		lv, err := dataset.NewView(l.table, l.sel)
		if err != nil {
			return execOut{}, err
		}
		rv, err := dataset.NewView(r.table, r.sel)
		if err != nil {
			return execOut{}, err
		}
		jt, err := dataset.HashJoin(lv, rv, node.LeftKey, node.RightKey, node.RightPrefix)
		lv.Release()
		rv.Release()
		if err != nil {
			return execOut{}, err
		}
		return execOut{table: jt, sel: dataset.FullSelection(jt.NumRows())}, nil

	case GroupBy:
		return execOut{}, fmt.Errorf("plan: group-by must be the root of a plan")

	case nil:
		return execOut{}, fmt.Errorf("plan: nil node")

	default:
		return execOut{}, fmt.Errorf("plan: unknown node type %T", n)
	}
}
