// Package plan is the relational query layer between the session engine and
// the columnar kernels: session steps compile into a small logical plan
// (scan → filter → derive → join → group-by), the optimizer merges stacked
// filters, and execution resolves every scan-level filter through the
// dataset's SelectionCache so a repeated predicate reuses its compiled bitmap
// instead of rescanning.
//
// The plan is deliberately tiny — AWARE's exploration steps only ever need
// these five shapes — but it gives every step one shared contract: predicates
// run through the tuned Where kernels, a join is a keyed lookup that refuses
// to repeat a row, and a group-by feeds one contingency table into the core
// evaluation layer.
package plan

import "aware/internal/dataset"

// Catalog resolves registered dataset names into their immutable table and
// shared filter-bitmap cache. The server's dataset registry implements it;
// library users can back it with anything (or pass nil when their plans only
// use TableScan nodes).
type Catalog interface {
	Dataset(name string) (*dataset.Table, *dataset.SelectionCache, error)
}

// Node is one logical plan node. The set is closed: Scan, TableScan, Filter,
// Derive, Join and GroupBy, assembled bottom-up (inputs inside outputs).
type Node interface {
	isNode()
}

// Scan reads a dataset registered in the catalog, through its shared
// selection cache.
type Scan struct {
	Dataset string
}

// TableScan reads a table the caller already holds. Cache, when non-nil, must
// be a SelectionCache over the same table and makes filters over this scan
// cache-served; nil compiles filters cold.
type TableScan struct {
	Table *dataset.Table
	Cache *dataset.SelectionCache
}

// Filter restricts its input to the rows matching Pred (nil keeps every row).
// The optimizer merges adjacent filters into one conjunction; it moves no
// filter across a Join or a Derive.
type Filter struct {
	Input Node
	Pred  dataset.Predicate
}

// Derive extends its input with a computed numeric column (see dataset.Expr)
// without copying the existing columns or changing the row set.
type Derive struct {
	Input Node
	Name  string
	Expr  dataset.Expr
}

// Join equi-joins two inputs on LeftKey = RightKey as a keyed lookup (see
// dataset.HashJoin): one output row per left row whose key a right row holds,
// in left row order, holding every left column under its own name and every
// right column renamed RightPrefix+name. A left key that two or more right
// rows hold fails the join with dataset.ErrJoinFansOut.
type Join struct {
	Left        Node
	Right       Node
	LeftKey     string
	RightKey    string
	RightPrefix string
}

// GroupBy tallies its input's rows into the contingency table of two
// attributes. Bins sizes the equal-width binning of numeric attributes
// (<= 0 means DefaultBins); categorical and bool attributes ignore it.
// A GroupBy must be the root of its plan: it produces counts, not rows.
type GroupBy struct {
	Input   Node
	RowAttr string
	ColAttr string
	Bins    int
}

// DefaultBins is the numeric binning a GroupBy node falls back to, matching
// the ten-bar histograms of the AWARE front-end.
const DefaultBins = 10

func (Scan) isNode()      {}
func (TableScan) isNode() {}
func (Filter) isNode()    {}
func (Derive) isNode()    {}
func (Join) isNode()      {}
func (GroupBy) isNode()   {}
