package dataset

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"aware/internal/obs"
	"aware/internal/stats"
)

// This file is the vectorized execution path of the substrate. Instead of
// interpreting a Predicate row by row (Predicate.Matches, kept as the
// reference implementation for differential testing), each predicate compiles
// into a columnar kernel producing a Selection — a dense bitmap over the
// table's row indices. Boolean combinators become word-wise bitmap operations
// (And = intersect, Or = union, Not = flip), and a View pairs the immutable
// table with a Selection so that counting, histogramming and numeric
// extraction iterate set bits without ever materializing a sub-table.
//
// The numeric hypothesis tests do not extract at all: View.Tally reduces the
// selected rows of a byte-encoded column to one count per dictionary value,
// and a t-test or a Kolmogorov–Smirnov test is computed from those at most
// 256 (value, count) pairs. stats.MomentsOf reduces a slice through the same
// histogram and the same arithmetic, so testing on counts and testing on the
// gathered rows (View.Floats, kept for wide columns and for callers that need
// the values) are one function of the sample, bit for bit.

// Selection is an immutable dense bitmap over the rows of a table: bit i is
// set when row i is selected. Selections are created by the predicate kernels
// (Table.Where) and combined with And/Or/Not, each of which returns a new
// Selection; once returned, a Selection is never mutated, so it may be shared
// freely across goroutines and cached across sessions.
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
	// and may be returned to via Release. released guards against double
	// returns; see arena.go for the ownership contract.
	arena    *WordArena
	released bool
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

// recount recomputes the cached population count after kernel writes.
func (s *Selection) recount() {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	s.count = c
}

// setBit marks row i as selected. Kernels call it during construction; the
// selection must not have been shared yet.
func (s *Selection) setBit(i int) { s.words[i/64] |= uint64(1) << (i % 64) }

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
// predicate selects every row. The seven built-in predicate types run as
// columnar kernels (one type-dispatched pass per leaf, bitmap algebra for the
// combinators); any other Predicate implementation falls back to the
// row-at-a-time Matches loop, so external predicates keep working. Leaves run
// the tuned branch-free kernels (kernels.go); WhereGeneric keeps the original
// kernels reachable as a differential oracle. When the table has an arena
// (SetArena), the result draws its words from it — the caller may Release it
// if (and only if) it owns the selection exclusively.
func (t *Table) Where(p Predicate) (*Selection, error) { return t.where(p, true) }

// WhereGeneric is Where on the untuned predicate kernels — the PR-5 bodies
// with a per-row branch and a read-modify-write per matching bit. It exists
// as the comparison baseline for the tuned kernels: benchmarks pin slices to
// it, and the differential tests assert Where and WhereGeneric produce
// word-identical bitmaps.
func (t *Table) WhereGeneric(p Predicate) (*Selection, error) { return t.where(p, false) }

// where is the shared compile body behind Where (tuned=true) and WhereGeneric
// (tuned=false): one combinator/short-circuit/error structure, two leaf kernel
// generations. Combinator intermediates are exclusively owned here and are
// released back to the table's arena as soon as they are consumed.
func (t *Table) where(p Predicate, tuned bool) (*Selection, error) {
	if p == nil {
		return t.fullSel(), nil
	}
	switch q := p.(type) {
	case Equals:
		if tuned {
			return t.whereEqualsTuned(q)
		}
		return t.whereEquals(q)
	case In:
		if tuned {
			return t.whereInTuned(q)
		}
		return t.whereIn(q)
	case Range:
		if tuned {
			return t.whereRangeTuned(q)
		}
		return t.whereNumeric(q.Column, func(v float64) bool { return v >= q.Low && v < q.High })
	case GreaterThan:
		if tuned {
			return t.whereGreaterTuned(q)
		}
		return t.whereNumeric(q.Column, func(v float64) bool { return v > q.Threshold })
	case Not:
		if q.Inner == nil {
			return nil, fmt.Errorf("dataset: not predicate with nil inner predicate")
		}
		inner, err := t.where(q.Inner, tuned)
		if err != nil {
			return nil, err
		}
		out := inner.notWith(t.execPool())
		inner.Release()
		return out, nil
	case And:
		sel := t.fullSel()
		for _, term := range q.Terms {
			// Short-circuit on an empty accumulator: no row would reach the
			// remaining terms row-at-a-time, so they must not be compiled —
			// this keeps error behavior identical to the reference path (a
			// term with a bad column after an all-false term never errors).
			if sel.Count() == 0 {
				break
			}
			ts, err := t.where(term, tuned)
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
		sel := t.newSel()
		for _, term := range q.Terms {
			// Mirror image of the And short-circuit: once every row is
			// selected, no row would evaluate the remaining terms.
			if sel.Count() == t.rows {
				break
			}
			ts, err := t.where(term, tuned)
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
		sel := t.newSel()
		for i := 0; i < t.rows; i++ {
			ok, err := p.Matches(t, i)
			if err != nil {
				return nil, err
			}
			if ok {
				sel.setBit(i)
			}
		}
		sel.recount()
		return sel, nil
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

func (t *Table) whereEquals(q Equals) (*Selection, error) {
	c, err := t.categoricalColumn(q.Column)
	if err != nil {
		return nil, err
	}
	if c.Type == Bool {
		switch q.Value {
		case "true":
			return t.whereBools(c, true), nil
		case "false":
			return t.whereBools(c, false), nil
		default:
			return t.stamp(EmptySelection(t.rows)), nil
		}
	}
	code, ok := c.codeOf[q.Value]
	if !ok {
		return t.stamp(EmptySelection(t.rows)), nil
	}
	return t.fillSelection(func(sel *Selection, lo, hi int) int {
		n := 0
		for j, rc := range c.codes[lo:hi] {
			if rc == code {
				sel.setBit(lo + j)
				n++
			}
		}
		return n
	}), nil
}

func (t *Table) whereIn(q In) (*Selection, error) {
	c, err := t.categoricalColumn(q.Column)
	if err != nil {
		return nil, err
	}
	if c.Type == Bool {
		var wantTrue, wantFalse bool
		for _, v := range q.Values {
			switch v {
			case "true":
				wantTrue = true
			case "false":
				wantFalse = true
			}
		}
		switch {
		case wantTrue && wantFalse:
			return t.stamp(FullSelection(t.rows)), nil
		case wantTrue:
			return t.whereBools(c, true), nil
		case wantFalse:
			return t.whereBools(c, false), nil
		default:
			return t.stamp(EmptySelection(t.rows)), nil
		}
	}
	// Translate the value set into a code set once, then scan codes.
	want := make(map[uint32]struct{}, len(q.Values))
	for _, v := range q.Values {
		if code, ok := c.codeOf[v]; ok {
			want[code] = struct{}{}
		}
	}
	if len(want) == 0 {
		return t.stamp(EmptySelection(t.rows)), nil
	}
	return t.fillSelection(func(sel *Selection, lo, hi int) int {
		n := 0
		for j, rc := range c.codes[lo:hi] {
			if _, ok := want[rc]; ok {
				sel.setBit(lo + j)
				n++
			}
		}
		return n
	}), nil
}

func (t *Table) whereBools(c *Column, want bool) *Selection {
	return t.fillSelection(func(sel *Selection, lo, hi int) int {
		n := 0
		for j, b := range c.bools[lo:hi] {
			if b == want {
				sel.setBit(lo + j)
				n++
			}
		}
		return n
	})
}

func (t *Table) whereNumeric(name string, keep func(float64) bool) (*Selection, error) {
	c, err := t.numericColumn(name)
	if err != nil {
		return nil, err
	}
	if c.Type == Float64 {
		return t.fillSelection(func(sel *Selection, lo, hi int) int {
			n := 0
			for j, v := range c.floats[lo:hi] {
				if keep(v) {
					sel.setBit(lo + j)
					n++
				}
			}
			return n
		}), nil
	}
	return t.fillSelection(func(sel *Selection, lo, hi int) int {
		n := 0
		for j, v := range c.ints[lo:hi] {
			if keep(float64(v)) {
				sel.setBit(lo + j)
				n++
			}
		}
		return n
	}), nil
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
	if c.Type == Bool {
		for i, cat := range categories {
			switch cat {
			case "true":
				out[i] = byCode[1]
			case "false":
				out[i] = byCode[0]
			}
		}
		return out, nil
	}
	for i, cat := range categories {
		if code, ok := c.codeOf[cat]; ok {
			out[i] = byCode[code]
		}
	}
	return out, nil
}

// codeCounts tallies the selected rows of a categorical or bool column per
// code (bool columns: false at 0, true at 1) — per-morsel partial histograms
// merged in morsel order, or the column's memoized tallies when the view is
// full. The result is read-only: it may be the memo's own slice.
func (v View) codeCounts(c *Column) []int {
	if v.full() {
		return c.codeStats().counts
	}
	if c.Type == Bool {
		return reduceInts(v.table.execPool(), v.sel.n, 2, func(lo, hi int, acc []int) {
			v.sel.forEachIn(lo, hi, func(row int) { acc[b2u(c.bools[row])]++ })
		})
	}
	return reduceInts(v.table.execPool(), v.sel.n, len(c.dict), func(lo, hi int, acc []int) {
		v.sel.forEachIn(lo, hi, func(row int) { acc[c.codes[row]]++ })
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
	// The labels are sorted (so is every dictionary), hence so is the output.
	labels := c.codeLabels()
	for code, n := range v.codeCounts(c) {
		if n > 0 {
			out = append(out, GroupCount{Value: labels[code], Count: n})
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
	m := chunks(sel.n, morselRows)
	if m <= 1 || p.workers == 1 {
		p.cutoffHits.Add(1)
		sel.gatherFloats(out, c, 0, sel.n)
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
		sel.gatherFloats(out[offsets[i]:offsets[i+1]], c, lo, min(lo+morselRows, sel.n))
	})
	return out, nil
}

// gatherFloats writes the values of a numeric column at the selected rows of
// the word-aligned range [lo, hi) (hi word-aligned or s.n) into dst, in row
// order; dst holds exactly that many values. One loop per column type: the
// value load sits directly in the bit-scan loop, with no call per row.
func (s *Selection) gatherFloats(dst []float64, c *Column, lo, hi int) {
	words := s.words[lo/64 : (hi+63)/64]
	i := 0
	switch c.Type {
	case Float64:
		for wi, w := range words {
			col := c.floats[lo+wi*64:]
			for ; w != 0; w &= w - 1 {
				dst[i] = col[bits.TrailingZeros64(w)]
				i++
			}
		}
	case Int64:
		for wi, w := range words {
			col := c.ints[lo+wi*64:]
			for ; w != 0; w &= w - 1 {
				dst[i] = float64(col[bits.TrailingZeros64(w)])
				i++
			}
		}
	}
}

// Tally is the selected rows of one numeric column counted per distinct
// value: what the numeric hypothesis tests read in place of a sample. For a
// byte-encoded column Values is the column's dictionary — every distinct
// value of the table in ascending order, shared and read-only — and Counts
// the selected rows holding each, zero where the selection holds none. A wide
// column has no dictionary: Values and Counts are nil and Rows is the gather,
// View.Floats.
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

// A selection of a byte-encoded column must never hold more distinct values
// than stats.MomentsOf reduces through a histogram, or Tally.Moments and the
// gathered slice would part ways.
var _ [stats.MaxCountedValues - maxByteDict]struct{}

// Tally reduces the selected rows of a numeric column to a histogram over its
// byte codes — the loop BinCounts runs: per-morsel partials merged in morsel
// order, one byte read and no float touched per row — and falls back to the
// gather for a wide column. A non-nil parent records the kernel span
// "view.moments"; a nil one costs nothing.
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
	default:
		k.span.Set("encoding", "byte")
		k.span.Set("distinct", len(t.Values))
	}
	k.end(v.sel.n, v.sel.count)
	return t, err
}

func (v View) tally(name string) (Tally, error) {
	c, err := v.table.numericColumn(name)
	if err != nil {
		return Tally{}, err
	}
	enc := c.byteCodes()
	if enc.dict == nil {
		rows, err := v.Floats(name)
		return Tally{Rows: rows}, err
	}
	counts := reduceInts(v.table.execPool(), v.sel.n, len(enc.dict), func(lo, hi int, acc []int) {
		v.sel.forEachIn(lo, hi, func(row int) { acc[enc.codes[row]]++ })
	})
	return Tally{Values: enc.dict, Counts: counts}, nil
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
		if ba.codes != nil {
			v.sel.forEachIn(lo, hi, func(row int) { acc[ba.binOf[ba.codes[row]]]++ })
			return
		}
		v.sel.forEachIn(lo, hi, func(row int) { acc[ba.assign[row]]++ })
	})
	return counts, ba, nil
}

// Materialize copies the selected rows into a standalone table. The
// vectorized paths never need this; it exists for callers that must hand a
// *Table to legacy APIs.
func (v View) Materialize() (*Table, error) {
	return v.table.Select(v.sel.Indices())
}

// binAssignments computes (or returns the memoized) binning of a numeric
// column cut into equal-width bins spanning the full table's range. The
// arithmetic replicates the reference path — stats.NewHistogram edges, then
// int((v-lo)/width) with clamping, with a degenerate-width fallback that
// assigns every row to bin 0 — so vectorized bin counts are bit-for-bit
// identical to binning a materialized sub-table. The edges depend on the
// column's smallest and largest value only; a byte-encoded column reads both
// off its dictionary, bins each dictionary entry once and counts the
// population in one pass over the codes, where a wide column converts, scans
// and bins every row.
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
		enc := c.byteCodes()
		var all, ends []float64
		if enc.dict != nil {
			ends = []float64{enc.dict[0], enc.dict[len(enc.dict)-1]}
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
		if enc.dict == nil {
			ba.assign = make([]int32, len(all))
			for i, v := range all {
				ba.assign[i] = binIndex(v)
				ba.counts[ba.assign[i]]++
			}
			return ba, nil
		}
		ba.codes, ba.binOf = enc.codes, make([]int32, len(enc.dict))
		var rows [maxByteDict]int
		for _, code := range enc.codes {
			rows[code]++
		}
		for code, v := range enc.dict {
			ba.binOf[code] = binIndex(v)
			ba.counts[ba.binOf[code]] += rows[code]
		}
		return ba, nil
	})
}

// --- the filter-bitmap cache ---

// defaultSelectionCacheCap bounds a SelectionCache; see NewSelectionCache.
const defaultSelectionCacheCap = 4096

// SelectionCache memoizes compiled filter bitmaps for one immutable table,
// keyed by the canonical predicate serialization (CanonicalPredicateKey), so
// semantically equal filters — including In predicates written with their
// values in different orders and And/Or trees with reordered terms — share one
// Selection. Selections are immutable, so a cache may be shared by any number
// of concurrent sessions exploring the same dataset; all methods are safe for
// concurrent use.
//
// The cache is additionally subsumption-aware: a conjunction P∧Q whose exact
// key misses is probed for the longest cached prefix of its canonical
// conjunct order, and a cached bitmap for P then serves as the scan base —
// only the residual conjuncts compile, and one bitmap And replaces the full
// scan. These partial hits are counted separately from exact hits.
//
// The cache is capacity-bounded: past cap entries, an arbitrary entry is
// evicted per insert. Eviction never affects correctness, only hit rate.
type SelectionCache struct {
	table *Table
	cap   int
	full  *Selection // the nil-predicate selection, shared by every caller

	mu      sync.RWMutex
	entries map[string]*Selection

	hits        atomic.Uint64
	partialHits atomic.Uint64
	misses      atomic.Uint64
}

// NewSelectionCache builds a cache over the table with the default capacity.
func NewSelectionCache(t *Table) *SelectionCache {
	return NewSelectionCacheCap(t, defaultSelectionCacheCap)
}

// NewSelectionCacheCap builds a cache with an explicit capacity (entries).
func NewSelectionCacheCap(t *Table, capacity int) *SelectionCache {
	if capacity <= 0 {
		capacity = defaultSelectionCacheCap
	}
	return &SelectionCache{
		table:   t,
		cap:     capacity,
		full:    t.stamp(FullSelection(t.NumRows())),
		entries: make(map[string]*Selection),
	}
}

// Table returns the table the cache compiles against.
func (c *SelectionCache) Table() *Table { return c.table }

// Where returns the selection for the predicate, compiling and caching it on
// first use. A nil predicate returns the shared full selection (built once —
// it is on the hot path of every population-vs-filter test); predicates that
// cannot be canonically serialized are compiled uncached.
func (c *SelectionCache) Where(p Predicate) (*Selection, error) {
	sel, _, err := c.whereCached(p)
	return sel, err
}

// whereCached is Where plus the cache outcome — "full" (shared nil-predicate
// selection), "hit" (exact key), "partial" (served from a cached prefix of
// the conjunction), "miss" or "uncacheable" — which the traced variant
// (WhereSpan) records on its kernel span.
func (c *SelectionCache) whereCached(p Predicate) (*Selection, string, error) {
	if p == nil {
		return c.full, "full", nil
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
	if and, ok := p.(And); ok && len(and.Terms) >= 2 {
		if sel, ok := c.whereSubsumed(and, key); ok {
			c.partialHits.Add(1)
			return sel, "partial", nil
		}
	}
	c.misses.Add(1)
	sel, err := c.table.Where(p)
	if err != nil {
		return nil, "miss", err
	}
	return c.store(key, sel), "miss", nil
}

// lookup returns the cached selection under key, or nil.
func (c *SelectionCache) lookup(key string) *Selection {
	c.mu.RLock()
	sel := c.entries[key]
	c.mu.RUnlock()
	return sel
}

// store detaches sel from the table's arena and inserts it under key,
// returning the canonical copy (the already-present one when a concurrent
// caller won the benign insert race).
func (c *SelectionCache) store(key string, sel *Selection) *Selection {
	// A cached selection is shared with every future caller for the cache's
	// lifetime, so it must never return to the table's arena.
	sel.detach()
	c.mu.Lock()
	if prev, ok := c.entries[key]; ok {
		sel = prev // lost a benign race; keep the first copy
	} else {
		if len(c.entries) >= c.cap {
			for k := range c.entries {
				delete(c.entries, k)
				break
			}
		}
		c.entries[key] = sel
	}
	c.mu.Unlock()
	return sel
}

// whereSubsumed tries to serve the conjunction from a cached prefix: the
// terms are put into canonical key order, the cache is probed for the longest
// prefix conjunction already compiled, and only the residual terms compile —
// each And-ed into the cached base bitmap. The result is stored under the
// full key, so the next identical query is an exact hit. It reports false —
// and the caller falls through to a cold compile — when the terms have no
// canonical keys, no prefix is cached, or a residual term fails to compile
// (the cold path owns error semantics, including the reference path's
// short-circuit behavior on empty accumulators).
func (c *SelectionCache) whereSubsumed(q And, fullKey string) (*Selection, bool) {
	keys := make([]string, len(q.Terms))
	terms := make([]Predicate, len(q.Terms))
	copy(terms, q.Terms)
	for i, t := range q.Terms {
		k, err := CanonicalPredicateKey(t)
		if err != nil {
			return nil, false
		}
		keys[i] = k
	}
	sort.Sort(&predsByKey{keys: keys, terms: terms})
	for n := len(terms) - 1; n >= 1; n-- {
		base := c.lookup(andKeyOf(keys[:n]))
		if base == nil {
			continue
		}
		sel, owned := base, false
		for _, term := range terms[n:] {
			// An empty accumulator already decides the conjunction; stop
			// compiling residuals (mirrors the And short-circuit in where).
			if sel.Count() == 0 {
				break
			}
			ts, err := c.table.Where(term)
			if err != nil {
				if owned {
					sel.Release()
				}
				return nil, false
			}
			next := sel.andWith(ts, c.table.execPool())
			if owned {
				sel.Release()
			}
			ts.Release()
			sel, owned = next, true
		}
		// When the cached base was empty before any residual ran, sel is still
		// the base bitmap itself — already detached, and aliasing it under the
		// full key too is exactly right (the conjunction IS empty).
		return c.store(fullKey, sel), true
	}
	return nil, false
}

// andKeyOf rebuilds the canonical key of the conjunction of terms whose
// canonical keys are given in ascending order: the bare term key for one
// term, the and wire object over the keys otherwise (exactly what
// CanonicalPredicateKey produces for that conjunction).
func andKeyOf(keys []string) string {
	if len(keys) == 1 {
		return keys[0]
	}
	total := len(`{"type":"and","terms":[]}`) + len(keys) - 1
	for _, k := range keys {
		total += len(k)
	}
	var b strings.Builder
	b.Grow(total)
	b.WriteString(`{"type":"and","terms":[`)
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
	}
	b.WriteString(`]}`)
	return b.String()
}

// predsByKey sorts a predicate slice and its canonical keys in lockstep.
type predsByKey struct {
	keys  []string
	terms []Predicate
}

func (s *predsByKey) Len() int           { return len(s.keys) }
func (s *predsByKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *predsByKey) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.terms[i], s.terms[j] = s.terms[j], s.terms[i]
}

// View is Where wrapped into a zero-copy view.
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

// Stats returns the cumulative exact-hit, partial-hit (subsumption-served)
// and miss counters.
func (c *SelectionCache) Stats() (hits, partialHits, misses uint64) {
	return c.hits.Load(), c.partialHits.Load(), c.misses.Load()
}

// sortedStrings returns a sorted copy of values (the canonical order used by
// In.Describe, the JSON codec and the cache key).
func sortedStrings(values []string) []string {
	out := append([]string(nil), values...)
	sort.Strings(out)
	return out
}
