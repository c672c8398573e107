package dataset

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"aware/internal/colstore"
	"aware/internal/obs"
	"aware/internal/stats"
)

// This file is the vectorized execution path of the substrate. Instead of
// interpreting a Predicate row by row, each predicate compiles into a
// columnar kernel producing a Selection — a dense bitmap over the
// table's row indices. Boolean combinators become word-wise bitmap operations
// (And = intersect, Or = union, Not = flip), and a View pairs the immutable
// table with a Selection so that counting, histogramming and numeric
// extraction iterate set bits without ever materializing a sub-table.
//
// The numeric hypothesis tests do not extract at all: View.Tally reduces the
// selected rows of a byte-coded column to one count per distinct value, and
// a t-test or a Kolmogorov–Smirnov test is computed from those at most 256
// (value, count) pairs. stats.MomentsOf reduces a slice through the same
// histogram and the same arithmetic, so testing on counts and testing on the
// gathered rows (View.Floats, kept for wide columns and for callers that need
// the values) are one function of the sample, bit for bit.

// Selection is an immutable dense bitmap over the rows of a table: bit i is
// set when row i is selected. Selections are created by the predicate kernels
// (Table.Where) and combined with And/Or/Not, each of which returns a new
// Selection; once returned, a Selection is never mutated, so it may be shared
// freely across goroutines and cached across sessions. Each call that
// returns an arena-backed selection returns one reference to it, and Release
// drops that reference; a selection is read only while its reader holds a
// reference (see arena.go).
type Selection struct {
	n     int
	words []uint64
	count int

	// pool is the execution pool the selection was built on — an inherited
	// hint so that algebra on a selection (And/Or/Not) keeps running where its
	// table is pinned, even though a Selection carries no table reference.
	// Nil means the process-wide DefaultPool.
	pool *Pool

	// arena, when non-nil, is the WordArena the selection's storage came from
	// and returns to when Release drops the last of its refs. cached is set
	// while a SelectionCache holds one of them; see arena.go for the
	// ownership contract.
	arena  *WordArena
	refs   atomic.Int32
	cached atomic.Bool
}

// execPool resolves the pool the selection's algebra runs on.
func (s *Selection) execPool() *Pool {
	if s.pool != nil {
		return s.pool
	}
	return DefaultPool()
}

// newSelection returns an all-clear selection over n rows.
func newSelection(n int) *Selection {
	return &Selection{n: n, words: make([]uint64, (n+63)/64)}
}

// FullSelection returns a selection with every one of the n rows set.
func FullSelection(n int) *Selection {
	s := newSelection(n)
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.maskTail()
	s.count = n
	return s
}

// EmptySelection returns a selection over n rows with no row set.
func EmptySelection(n int) *Selection { return newSelection(n) }

// maskTail clears the bits past the last row in the final word, preserving
// the invariant that unused bits are always zero (Not and Count rely on it).
func (s *Selection) maskTail() {
	if tail := s.n % 64; tail != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (uint64(1) << tail) - 1
	}
}

// Len returns the number of rows the selection spans (set or not).
func (s *Selection) Len() int { return s.n }

// Count returns the number of selected rows.
func (s *Selection) Count() int { return s.count }

// Contains reports whether row i is selected.
func (s *Selection) Contains(i int) bool {
	return s.words[i/64]&(uint64(1)<<(i%64)) != 0
}

// checkSameSpan panics when two selections span different row counts:
// combining selections of different tables is a programming error that would
// otherwise corrupt the bitmap (or index out of range) far from its cause.
func (s *Selection) checkSameSpan(o *Selection) {
	if s.n != o.n {
		panic(fmt.Sprintf("dataset: combining selections over %d and %d rows", s.n, o.n))
	}
}

// And returns the intersection of two selections, which must span the same
// table. It runs on the pool the receiver was compiled on (so a table pinned
// with SetPool keeps its whole selection lineage pinned).
func (s *Selection) And(o *Selection) *Selection { return s.andWith(o, s.execPool()) }

// Or returns the union of two selections, which must span the same table; it
// runs on the receiver's pool, like And.
func (s *Selection) Or(o *Selection) *Selection { return s.orWith(o, s.execPool()) }

// Not returns the complement of the selection, on the receiver's pool.
func (s *Selection) Not() *Selection { return s.notWith(s.execPool()) }

// andWith is And on an explicit pool: the word array is split into
// morsel-sized ranges, each intersected and popcounted independently, and the
// per-range counts summed in range order. Table.Where routes combinators here
// with the table's pool; the public And uses the default pool.
func (s *Selection) andWith(o *Selection, p *Pool) *Selection {
	s.checkSameSpan(o)
	out := s.sibling()
	out.pool = p
	out.count = runCounted(p, len(out.words), morselWords, func(lo, hi int) int {
		a, b, dst := s.words[lo:hi], o.words[lo:hi], out.words[lo:hi]
		c := 0
		for j := range dst {
			w := a[j] & b[j]
			dst[j] = w
			c += bits.OnesCount64(w)
		}
		return c
	})
	return out
}

// orWith is Or on an explicit pool; see andWith.
func (s *Selection) orWith(o *Selection, p *Pool) *Selection {
	s.checkSameSpan(o)
	out := s.sibling()
	out.pool = p
	out.count = runCounted(p, len(out.words), morselWords, func(lo, hi int) int {
		a, b, dst := s.words[lo:hi], o.words[lo:hi], out.words[lo:hi]
		c := 0
		for j := range dst {
			w := a[j] | b[j]
			dst[j] = w
			c += bits.OnesCount64(w)
		}
		return c
	})
	return out
}

// notWith is Not on an explicit pool. The complement's count is known without
// a popcount (n - count, thanks to the zero-tail invariant), so the ranges
// only flip words; the tail mask is reapplied once at the end.
func (s *Selection) notWith(p *Pool) *Selection {
	out := s.sibling()
	out.pool = p
	runCounted(p, len(out.words), morselWords, func(lo, hi int) int {
		src, dst := s.words[lo:hi], out.words[lo:hi]
		for j := range dst {
			dst[j] = ^src[j]
		}
		return 0
	})
	out.maskTail()
	out.count = s.n - s.count
	return out
}

// ForEach calls fn with every selected row index, in ascending order.
func (s *Selection) ForEach(fn func(row int)) { s.forEachIn(0, s.n, fn) }

// forEachIn calls fn with every selected row index in [lo, hi), ascending.
// lo must be word-aligned; hi is either word-aligned or s.n (the zero-tail
// invariant makes masking the final word unnecessary). The parallel
// aggregations give each morsel its own [lo, hi) range.
func (s *Selection) forEachIn(lo, hi int, fn func(row int)) {
	for wi := lo / 64; wi < (hi+63)/64; wi++ {
		w := s.words[wi]
		base := wi * 64
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// countIn returns the number of selected rows in the word-aligned range
// [lo, hi) (hi word-aligned or s.n).
func (s *Selection) countIn(lo, hi int) int {
	c := 0
	for wi := lo / 64; wi < (hi+63)/64; wi++ {
		c += bits.OnesCount64(s.words[wi])
	}
	return c
}

// Indices returns the selected row indices in ascending order.
func (s *Selection) Indices() []int {
	out := make([]int, 0, s.count)
	s.ForEach(func(row int) { out = append(out, row) })
	return out
}

// --- predicate kernels ---

// Where compiles the predicate into a Selection over the table's rows. A nil
// predicate selects every row; a nil term inside an And or Or, or a nil Not
// inner, is an error. Each of the seven predicate types has one compiler: the
// four leaves run the branch-free kernels of kernels.go, one type-dispatched
// pass per leaf, and the combinators are bitmap algebra over their terms'
// selections. When the table has an arena (SetArena), the result draws its
// words from it — the caller may Release it if (and only if) it owns the
// selection exclusively. Combinator intermediates are exclusively owned here
// and are released back to the arena as soon as they are consumed.
func (t *Table) Where(p Predicate) (*Selection, error) {
	if p == nil {
		return t.fullSel(), nil
	}
	switch q := p.(type) {
	case Equals:
		return t.whereEquals(q)
	case In:
		return t.whereIn(q)
	case Range:
		return t.whereRange(q)
	case GreaterThan:
		return t.whereGreater(q)
	case Not:
		if q.Inner == nil {
			return nil, fmt.Errorf("dataset: not predicate with nil inner predicate")
		}
		inner, err := t.Where(q.Inner)
		if err != nil {
			return nil, err
		}
		out := inner.notWith(t.execPool())
		inner.Release()
		return out, nil
	case And:
		// A nil term is malformed, not "every row": rejected before anything
		// compiles, so the short-circuit below cannot hide it.
		if slices.Contains(q.Terms, nil) {
			return nil, fmt.Errorf("dataset: and predicate with a nil term")
		}
		sel := t.fullSel()
		for _, term := range q.Terms {
			// Short-circuit on an empty accumulator: no row would reach the
			// remaining terms row-at-a-time, so they must not be compiled —
			// this keeps error behavior identical to the reference (a term
			// with a bad column after an all-false term never errors).
			if sel.Count() == 0 {
				break
			}
			ts, err := t.Where(term)
			if err != nil {
				sel.Release()
				return nil, err
			}
			next := sel.andWith(ts, t.execPool())
			sel.Release()
			ts.Release()
			sel = next
		}
		return sel, nil
	case Or:
		if slices.Contains(q.Terms, nil) {
			return nil, fmt.Errorf("dataset: or predicate with a nil term")
		}
		sel := t.newSel()
		for _, term := range q.Terms {
			// Mirror image of the And short-circuit: once every row is
			// selected, no row would evaluate the remaining terms.
			if sel.Count() == t.rows {
				break
			}
			ts, err := t.Where(term)
			if err != nil {
				sel.Release()
				return nil, err
			}
			next := sel.orWith(ts, t.execPool())
			sel.Release()
			ts.Release()
			sel = next
		}
		return sel, nil
	default:
		return nil, fmt.Errorf("dataset: cannot compile predicate type %T", p)
	}
}

// stamp marks a freshly built selection with the table's execution pool, so
// later algebra on it (And/Or/Not) stays on the pool the table is pinned to.
func (t *Table) stamp(sel *Selection) *Selection {
	sel.pool = t.execPool()
	return sel
}

// categoricalColumn resolves a column that Equals/In may scan, with the same
// errors the row-at-a-time path produces.
func (t *Table) categoricalColumn(name string) (*Column, error) {
	c, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	if c.Type != Categorical && c.Type != Bool {
		return nil, fmt.Errorf("%w: %s is %s, not categorical", ErrTypeMismatch, c.Name, c.Type)
	}
	return c, nil
}

// numericColumn resolves a column that Range/GreaterThan, Floats or a binning
// may read, with the same errors the row-at-a-time path produces.
func (t *Table) numericColumn(name string) (*Column, error) {
	c, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	if c.Type != Float64 && c.Type != Int64 {
		return nil, fmt.Errorf("%w: %s is %s, not numeric", ErrTypeMismatch, c.Name, c.Type)
	}
	return c, nil
}

// --- views ---

// View is a zero-copy filtered look at an immutable table: the table plus a
// Selection of its rows. Every read that the evaluation layer needs — counts
// per category, equal-width bin counts, numeric extraction, group-bys —
// iterates the selection's set bits over the shared column storage, so no
// sub-table is ever materialized. Views are values; copying one is free.
type View struct {
	table *Table
	sel   *Selection
}

// View compiles the predicate (nil = all rows) and wraps the result.
func (t *Table) View(p Predicate) (View, error) {
	sel, err := t.Where(p)
	if err != nil {
		return View{}, err
	}
	return View{table: t, sel: sel}, nil
}

// NewView pairs a table with an existing selection, which must span exactly
// the table's rows.
func NewView(t *Table, sel *Selection) (View, error) {
	if t == nil || sel == nil {
		return View{}, fmt.Errorf("dataset: view requires a table and a selection")
	}
	if sel.Len() != t.rows {
		return View{}, fmt.Errorf("%w: selection spans %d rows, table has %d", ErrLengthMismatch, sel.Len(), t.rows)
	}
	return View{table: t, sel: sel}, nil
}

// Table returns the underlying (shared, immutable) table.
func (v View) Table() *Table { return v.table }

// Selection returns the view's row selection.
func (v View) Selection() *Selection { return v.sel }

// Release drops the view's reference to its selection (Selection.Release).
// The view must not be read afterwards.
func (v View) Release() { v.sel.Release() }

// NumRows returns the number of selected rows.
func (v View) NumRows() int { return v.sel.Count() }

// full reports whether the view selects every row of its table — the
// population side of a filter-vs-population test. Counts over a full view are
// constants of the table and come from its reference-statistics memo.
func (v View) full() bool { return v.sel.count == v.sel.n }

// CountsFor returns the counts of the column's values among the selected
// rows, in the order given by categories (values not present count as zero)
// — the vectorized equivalent of materializing the sub-table and reading its
// ValueCounts in that order.
func (v View) CountsFor(name string, categories []string) ([]int, error) {
	c, err := v.table.categoricalColumn(name)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(categories))
	byCode := v.codeCounts(c)
	for i, cat := range categories {
		if code, ok := c.codeOf[cat]; ok {
			out[i] = byCode[code]
		}
	}
	return out, nil
}

// codeCounts tallies the selected rows of a coded column per code (bool
// columns: false at 0, true at 1) — per-morsel partial histograms merged in
// morsel order, a mapped column's over its source's codes and then folded
// through via, or the column's memoized tallies when the view is full. A
// byte-coded column of at most eight codes is counted by its bit planes
// (countPlanes), any other by the scan. The result is read-only: it may be
// the memo's own slice.
func (v View) codeCounts(c *Column) []int {
	if v.full() {
		return c.codeTallies()
	}
	switch r := c.rows(); {
	case r.planeCounted():
		return c.fold(countPlanes(v, r.codePlanes(), r.dictLen()))
	case r.width == 1:
		return c.fold(countCodes(v, r.codes8, r.dictLen()))
	case r.width == 2:
		return c.fold(countCodes(v, r.codes16, r.dictLen()))
	default:
		return c.fold(countCodes(v, r.codes32, r.dictLen()))
	}
}

func countCodes[C colstore.Code](v View, codes []C, n int) []int {
	return reduceInts(v.table.execPool(), v.sel.n, n, func(lo, hi int, acc []int) {
		v.sel.forEachIn(lo, hi, func(row int) { acc[codes[row]]++ })
	})
}

// GroupBy returns the per-value counts of a categorical (or bool) column
// among the selected rows, sorted by value — the bars a filtered chart
// renders, without materializing the sub-table.
func (v View) GroupBy(name string) ([]GroupCount, error) {
	c, err := v.table.categoricalColumn(name)
	if err != nil {
		return nil, err
	}
	var out []GroupCount
	// Every dictionary is sorted, hence so is the output.
	for code, n := range v.codeCounts(c) {
		if n > 0 {
			out = append(out, GroupCount{Value: c.dict[code], Count: n})
		}
	}
	return out, nil
}

// Floats returns the numeric values of the named column at the selected rows,
// in row order. Above the morsel cutoff the gather is parallel: a popcount
// pass fixes each morsel's output offset (an exclusive prefix sum in morsel
// order), then every morsel writes its disjoint sub-slice — so the output is
// byte-identical to the sequential append loop.
func (v View) Floats(name string) ([]float64, error) {
	c, err := v.table.numericColumn(name)
	if err != nil {
		return nil, err
	}
	sel, p := v.sel, v.table.execPool()
	out := make([]float64, sel.count)
	var codes any
	var values []float64
	if c.width != 0 {
		codes, values = c.rowValues()
	}
	m := chunks(sel.n, morselRows)
	if m <= 1 || p.workers == 1 {
		p.cutoffHits.Add(1)
		sel.gatherFloats(out, c, codes, values, 0, sel.n)
		return out, nil
	}
	offsets := make([]int, m+1)
	p.Run(m, func(i int) {
		lo := i * morselRows
		offsets[i+1] = sel.countIn(lo, min(lo+morselRows, sel.n))
	})
	for i := 0; i < m; i++ {
		offsets[i+1] += offsets[i]
	}
	p.Run(m, func(i int) {
		lo := i * morselRows
		sel.gatherFloats(out[offsets[i]:offsets[i+1]], c, codes, values, lo, min(lo+morselRows, sel.n))
	})
	return out, nil
}

// gatherFloats writes the values of a numeric column at the selected rows of
// the word-aligned range [lo, hi) (hi word-aligned or s.n) into dst, in row
// order; dst holds exactly that many values. A coded column passes its
// rows' codes and each code's value (Column.rowValues). One loop per column
// storage: the value load — a code's value, for a coded column — sits
// directly in the bit-scan loop, with no call per row.
func (s *Selection) gatherFloats(dst []float64, c *Column, codes any, values []float64, lo, hi int) {
	words := s.words[lo/64 : (hi+63)/64]
	i := 0
	switch cs := codes.(type) {
	case []uint8:
		gatherCodes(dst, words, cs[lo:], values)
	case []uint16:
		gatherCodes(dst, words, cs[lo:], values)
	case []uint32:
		gatherCodes(dst, words, cs[lo:], values)
	case nil:
		if c.Type == Float64 {
			for wi, w := range words {
				col := c.floats[lo+wi*64:]
				for ; w != 0; w &= w - 1 {
					dst[i] = col[bits.TrailingZeros64(w)]
					i++
				}
			}
			return
		}
		for wi, w := range words {
			col := c.ints[lo+wi*64:]
			for ; w != 0; w &= w - 1 {
				dst[i] = float64(col[bits.TrailingZeros64(w)])
				i++
			}
		}
	}
}

// gatherCodes writes values[codes[row]] for each set bit of words, row
// counted from the window's first.
func gatherCodes[C colstore.Code](dst []float64, words []uint64, codes []C, values []float64) {
	i := 0
	for wi, w := range words {
		col := codes[wi*64:]
		for ; w != 0; w &= w - 1 {
			dst[i] = values[col[bits.TrailingZeros64(w)]]
			i++
		}
	}
}

// Tally is the selected rows of one numeric column counted per distinct
// value: what the numeric hypothesis tests read in place of a sample. For a
// coded column Values is the column's distinct comparison values in
// ascending order, shared and read-only — codes of one value (−0 and +0,
// int64 values no float64 tells apart) counted as one — and Counts the
// selected rows holding each, zero where the selection holds none. A wide
// column has no dictionary: Values and Counts are nil and Rows is the
// gather, View.Floats.
type Tally struct {
	Values []float64
	Counts []int
	Rows   []float64
}

// Moments reduces the counts — or, for a wide column, the gathered rows — by
// the one arithmetic of stats.MomentsOf, so the result equals
// stats.MomentsOf(View.Floats) bit for bit on every column.
func (t Tally) Moments() stats.Moments {
	if t.Values == nil {
		return stats.MomentsOf(t.Rows)
	}
	return stats.MomentsFromCounts(t.Values, t.Counts)
}

// KS is the two-sample Kolmogorov–Smirnov test of t against u, two tallies
// of one column of one table: both count over its dictionary, or both hold
// gathers.
func (t Tally) KS(u Tally) (stats.TestResult, error) {
	if t.Values == nil {
		return stats.KolmogorovSmirnov(t.Rows, u.Rows)
	}
	return stats.KSFromCounts(t.Counts, u.Counts)
}

// A selection of a coded column must never hold more distinct values than
// stats.MomentsOf reduces through a histogram, or Tally.Moments and the
// gathered slice would part ways.
var _ [stats.MaxCountedValues - colstore.MaxValues]struct{}

// Tally reduces the selected rows of a numeric column to a histogram over its
// byte codes (View.codeCounts: the bit planes of at most eight codes, else
// the scan) folded onto its distinct values, and falls back to the gather
// for a wide column. A non-nil parent records the kernel span
// "view.moments" and, unless the column's memo answered a full view, the
// kernel that counted (kernel: planes|scan; a wide column's gather is a
// scan); a nil one costs nothing.
func (v View) Tally(name string, parent *obs.Span) (Tally, error) {
	if parent == nil {
		return v.tally(name)
	}
	k := startKernel(parent, v.table.execPool(), nil, "view.moments")
	k.span.Set("column", name)
	t, err := v.tally(name)
	switch {
	case err != nil:
		k.span.Set("error", err.Error())
	case t.Values == nil:
		k.span.Set("encoding", "wide")
		k.span.Set("kernel", "scan")
	default:
		k.span.Set("encoding", "byte")
		k.span.Set("distinct", len(t.Values))
		if !v.full() {
			c, _ := v.table.numericColumn(name)
			k.span.Set("kernel", c.countKernel())
		}
	}
	k.end(v.sel.n, v.sel.count)
	return t, err
}

func (v View) tally(name string) (Tally, error) {
	c, err := v.table.numericColumn(name)
	if err != nil {
		return Tally{}, err
	}
	if c.width == 0 {
		rows, err := v.Floats(name)
		return Tally{Rows: rows}, err
	}
	counts := make([]int, len(c.distinct))
	for code, n := range v.codeCounts(c) {
		counts[c.rank[code]] += n
	}
	return Tally{Values: c.distinct, Counts: counts}, nil
}

// Moments returns the size, mean and squared deviations of a numeric column
// over the selected rows — all a t-test reads of them — from their Tally.
func (v View) Moments(name string, parent *obs.Span) (stats.Moments, error) {
	t, err := v.Tally(name, parent)
	if err != nil {
		return stats.Moments{}, err
	}
	return t.Moments(), nil
}

// BinCounts returns the per-bin counts of a numeric column among the selected
// rows, using equal-width bins whose edges span the FULL table's range — the
// axes a filtered histogram shares with the population it is compared
// against. The per-row bin assignment is computed once per (column, bins) and
// memoized on the column, so every subsequent view pays only one
// array lookup per selected row, and a full view none: the population's bin
// counts are memoized with the assignment.
func (v View) BinCounts(name string, bins int) ([]int, error) {
	counts, _, err := v.binCounts(name, bins)
	return counts, err
}

// binCounts is BinCounts, also returning the binning it read (for the traced
// variant).
func (v View) binCounts(name string, bins int) ([]int, *binAssignment, error) {
	ba, err := v.table.binAssignments(name, bins)
	if err != nil {
		return nil, nil, err
	}
	if v.full() {
		return slices.Clone(ba.counts), ba, nil
	}
	counts := reduceInts(v.table.execPool(), v.sel.n, bins, func(lo, hi int, acc []int) {
		switch codes := ba.codes.(type) {
		case []uint8:
			countThrough(v.sel, lo, hi, codes, ba.binOf, acc)
		case []uint16:
			countThrough(v.sel, lo, hi, codes, ba.binOf, acc)
		case []uint32:
			countThrough(v.sel, lo, hi, codes, ba.binOf, acc)
		default:
			v.sel.forEachIn(lo, hi, func(row int) { acc[ba.assign[row]]++ })
		}
	})
	return counts, ba, nil
}

// binAssignments computes (or returns the memoized) binning of a numeric
// column cut into equal-width bins spanning the full table's range. The
// arithmetic replicates the reference path — stats.NewHistogram edges, then
// int((v-lo)/width) with clamping, with a degenerate-width fallback that
// assigns every row to bin 0 — so vectorized bin counts are bit-for-bit
// identical to binning a materialized sub-table. The edges depend on the
// column's smallest and largest value only; a coded column reads both off
// its sorted values and its memoized code tallies (valueRange) and bins each
// value once — a mapped column's bins then composed through via over its
// source's codes — where a wide column converts, scans and bins every row.
func (t *Table) binAssignments(column string, binCount int) (*binAssignment, error) {
	c, err := t.numericColumn(column)
	if err != nil {
		return nil, err
	}
	get := func() *binAssignment { return c.ref.bins[binCount] }
	put := func(ba *binAssignment) {
		if c.ref.bins == nil {
			c.ref.bins = make(map[int]*binAssignment)
		}
		c.ref.bins[binCount] = ba
	}
	return memoized(&c.ref, get, put, func() (*binAssignment, error) {
		var all, ends []float64
		var rows []int // a coded column's rows per code
		if c.width != 0 {
			rows = c.codeTallies()
			ends = c.valueRange(rows)
		} else if all = c.floatValues(); len(all) > 0 {
			least, most, _ := stats.MinMax(all)
			ends = []float64{least, most}
		}
		hist, err := stats.NewHistogram(ends, binCount)
		if err != nil {
			return nil, err
		}
		lo := hist.Edges[0]
		width := (hist.Edges[binCount] - lo) / float64(binCount)
		binIndex := func(v float64) int32 {
			if !(width > 0) {
				return 0
			}
			return int32(min(max(int((v-lo)/width), 0), binCount-1))
		}
		ba := &binAssignment{counts: make([]int, binCount), labels: make([]string, binCount)}
		for b := range ba.labels {
			ba.labels[b] = fmt.Sprintf("[%s, %s)", trimFloat(hist.Edges[b]), trimFloat(hist.Edges[b+1]))
		}
		if c.width == 0 {
			ba.assign = make([]uint32, len(all))
			for i, v := range all {
				ba.assign[i] = uint32(binIndex(v))
				ba.counts[ba.assign[i]]++
			}
			return ba, nil
		}
		binOf := make([]int32, len(c.values))
		for code, v := range c.values {
			binOf[code] = binIndex(v)
			ba.counts[binOf[code]] += rows[code]
		}
		ba.codes, ba.binOf = c.rows().codeVector(), throughVia(c, binOf)
		return ba, nil
	})
}

// --- the filter-bitmap cache ---

// fullRows returns the table's every-row selection, built once (a racing
// first use keeps the first) and shared by every SelectionCache over it.
func (t *Table) fullRows() *Selection {
	if t.full.Load() == nil {
		t.full.CompareAndSwap(nil, t.stamp(FullSelection(t.rows)))
	}
	return t.full.Load()
}

// selectionCacheBytes is every SelectionCache's memory budget; see
// SelectionCache for what it counts and why it is 32 MiB.
const selectionCacheBytes = 32 << 20

// SelectionCache memoizes compiled filter bitmaps for one immutable table,
// keyed by the canonical predicate serialization (CanonicalPredicateKey), so
// semantically equal filters — including In predicates written with their
// values in different orders and And/Or trees with reordered terms — share one
// Selection. Selections are immutable, so a cache may be shared by any number
// of concurrent sessions exploring the same dataset; all methods are safe for
// concurrent use.
//
// The cache is bounded in bytes, not entries, so its memory does not grow
// with the table's row count: each entry counts its bitmap ((rows+63)/64
// words of 8 bytes) plus its key, and an insert evicts arbitrary entries
// until the total fits a 32 MiB budget — ≈ 894 bitmaps at 300k rows, 89 at
// 3M. A bitmap larger than the whole budget is still cached, alone.
// Eviction never affects correctness, only hit rate. Why 32 MiB: bitmaps are
// reused almost only inside a session, so a few hundred serve the open-loop
// 300k-row benchmark (http_open_mixed_300k, 2-CPU host) as well as
// thousands. Its server's peak RSS read 334–339 MB under the former
// 4,096-entry cap, 156 MB at 64 MiB, 86 MB at 32 MiB and 51 MB at 16 MiB,
// with CPU per step flat throughout.
type SelectionCache struct {
	table  *Table
	cap    int // at most this many entries
	budget int // at most this many bytes, unless one entry alone exceeds it

	mu      sync.RWMutex
	entries map[string]*Selection
	bytes   int // the entries' bitmap and key bytes

	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewSelectionCache builds a cache over the table bounded by the 32 MiB
// byte budget alone (bitmap plus key bytes, arbitrary eviction; see
// SelectionCache).
func NewSelectionCache(t *Table) *SelectionCache {
	return newSelectionCache(t, 0, selectionCacheBytes)
}

// NewSelectionCacheCap builds a cache holding at most capacity bitmaps, also
// within the byte budget; capacity <= 0 is NewSelectionCache.
func NewSelectionCacheCap(t *Table, capacity int) *SelectionCache {
	return newSelectionCache(t, capacity, selectionCacheBytes)
}

// newSelectionCache builds a cache of at most capacity entries (<= 0: no
// entry bound) and budget bytes.
func newSelectionCache(t *Table, capacity, budget int) *SelectionCache {
	if capacity <= 0 {
		capacity = math.MaxInt
	}
	return &SelectionCache{
		table:   t,
		cap:     capacity,
		budget:  budget,
		entries: make(map[string]*Selection),
	}
}

// entryBytes is what one entry under key counts against the budget.
func (c *SelectionCache) entryBytes(key string) int {
	return (c.table.rows+63)/64*8 + len(key)
}

// Table returns the table the cache compiles against.
func (c *SelectionCache) Table() *Table { return c.table }

// Where returns the selection for the predicate, compiling and caching it on
// first use. A nil predicate returns the shared full selection (built once —
// it is on the hot path of every population-vs-filter test); predicates that
// cannot be canonically serialized are compiled uncached. Every call returns
// one reference of its own: the caller may Release it once done reading, so
// that a bitmap the cache has evicted goes back to the table's arena. Not
// releasing is safe; releasing early or twice is not.
func (c *SelectionCache) Where(p Predicate) (*Selection, error) {
	sel, _, err := c.whereCached(p)
	return sel, err
}

// whereCached is Where plus the cache outcome — "full" (shared nil-predicate
// selection), "hit", "miss" or "uncacheable" — which the traced variant
// (WhereSpan) records on its kernel span.
func (c *SelectionCache) whereCached(p Predicate) (*Selection, string, error) {
	if p == nil {
		return c.table.fullRows(), "full", nil
	}
	key, err := CanonicalPredicateKey(p)
	if err != nil {
		sel, werr := c.table.Where(p)
		return sel, "uncacheable", werr
	}
	if sel := c.lookup(key); sel != nil {
		c.hits.Add(1)
		return sel, "hit", nil
	}
	c.misses.Add(1)
	sel, err := c.table.Where(p)
	if err != nil {
		return nil, "miss", err
	}
	return c.store(key, sel), "miss", nil
}

// lookup returns a new reference to the cached selection under key, or nil.
// It is taken under the lock, so no eviction can recycle the bitmap first.
func (c *SelectionCache) lookup(key string) *Selection {
	c.mu.RLock()
	sel := c.entries[key]
	if sel != nil {
		sel.refs.Add(1)
	}
	c.mu.RUnlock()
	return sel
}

// store inserts the freshly compiled sel under key, keeping the compile's
// reference as the cache's own, and returns a new reference to the canonical
// copy. When a concurrent caller won the benign insert race it returns that
// caller's copy and releases sel, which nothing else holds, back to the
// arena. Each eviction drops the cache's reference; the evicted bitmap
// returns to the arena unless a caller still holds one.
func (c *SelectionCache) store(key string, sel *Selection) *Selection {
	size := c.entryBytes(key)
	c.mu.Lock()
	if prev, ok := c.entries[key]; ok {
		prev.refs.Add(1)
		c.mu.Unlock()
		sel.Release()
		return prev
	}
	for k, old := range c.entries {
		if c.bytes+size <= c.budget && len(c.entries) < c.cap {
			break
		}
		delete(c.entries, k)
		c.bytes -= c.entryBytes(k)
		old.cached.Store(false)
		old.Release()
	}
	sel.cached.Store(true)
	sel.refs.Add(1) // the caller's; the compile's is the cache's
	c.entries[key] = sel
	c.bytes += size
	c.mu.Unlock()
	return sel
}

// View is Where wrapped into a zero-copy view; Release the view to drop the
// reference Where returned.
func (c *SelectionCache) View(p Predicate) (View, error) {
	sel, err := c.Where(p)
	if err != nil {
		return View{}, err
	}
	return View{table: c.table, sel: sel}, nil
}

// Len returns the number of cached bitmaps.
func (c *SelectionCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Bytes returns the cached bitmaps' and keys' bytes, the quantity the
// budget bounds.
func (c *SelectionCache) Bytes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bytes
}

// Stats returns the cumulative hit and miss counters. The middle value is
// always 0: it stays only until the benchmark stops reading it.
func (c *SelectionCache) Stats() (hits, partial, misses uint64) {
	return c.hits.Load(), 0, c.misses.Load()
}

// sortedStrings returns a sorted copy of values (the canonical order used by
// In.Describe, the JSON codec and the cache key).
func sortedStrings(values []string) []string {
	out := append([]string(nil), values...)
	sort.Strings(out)
	return out
}
