package dataset

import (
	"aware/internal/obs"
)

// This file threads request tracing down to kernel depth. Each traced entry
// point is a thin span-aware wrapper over the untraced method — the wrappers
// exist so that the hot untraced paths (Where, View, CountsFor, ...) carry no
// tracing branches at all, and a nil span short-circuits the wrappers back to
// those same untraced bodies at zero cost.
//
// Kernel spans are annotated with deltas of the pool's process-wide counters
// (morsels, cutoff hits, queue-wait ns) taken around the kernel call. Under
// concurrent load the deltas include other requests' morsels that executed in
// the same window — they are an attribution aid, not an exact per-call
// accounting, and /debug/trace documents them as such.

// kernelTrace carries one kernel span plus the pool-counter (and, for
// compile kernels, arena-counter) baselines taken when it was opened. The
// zero value (nil span) is a free no-op.
type kernelTrace struct {
	span    *obs.Span
	pool    *Pool
	before  PoolStats
	arena   *WordArena
	abefore ArenaStats
}

// startKernel opens a kernel-depth child span, or returns the no-op trace
// when the parent is nil. arena may be nil (kernels that never allocate
// selections, e.g. view aggregations).
func startKernel(parent *obs.Span, p *Pool, a *WordArena, name string) kernelTrace {
	if parent == nil {
		return kernelTrace{}
	}
	k := kernelTrace{span: parent.Child(obs.KindKernel, name), pool: p, before: p.Stats(), arena: a}
	if a != nil {
		k.abefore = a.Stats()
	}
	return k
}

// end closes the kernel span with the standard kernel annotations: rows
// spanned, rows selected, the pool-counter deltas observed during the
// kernel, and — when the table compiles through an arena — how many
// selections the kernel took fresh vs recycled (a steady-state kernel shows
// arena_fresh=0).
func (k kernelTrace) end(rows, selected int) {
	if k.span == nil {
		return
	}
	after := k.pool.Stats()
	k.span.Set("rows", rows)
	k.span.Set("selected", selected)
	k.span.Set("morsels", after.MorselsProcessed-k.before.MorselsProcessed)
	k.span.Set("cutoff_hits", after.SequentialCutoffHits-k.before.SequentialCutoffHits)
	k.span.Set("pool_queue_wait_ns", after.QueueWaitNs-k.before.QueueWaitNs)
	if k.arena != nil {
		aafter := k.arena.Stats()
		k.span.Set("arena_fresh", aafter.FreshSelections-k.abefore.FreshSelections)
		k.span.Set("arena_recycled", aafter.RecycledSelections-k.abefore.RecycledSelections)
	}
	k.span.End()
}

// WhereSpan is SelectionCache.Where with a kernel span recorded under parent,
// annotated with the cache outcome (full/hit/miss/uncacheable) so a trace
// shows whether the filter compiled or was served from the shared bitmap.
func (c *SelectionCache) WhereSpan(p Predicate, parent *obs.Span) (*Selection, error) {
	if parent == nil {
		sel, _, err := c.whereCached(p)
		return sel, err
	}
	k := startKernel(parent, c.table.execPool(), c.table.Arena(), "cache.where")
	sel, outcome, err := c.whereCached(p)
	k.span.Set("cache", outcome)
	if err != nil {
		k.span.Set("error", err.Error())
		k.end(c.table.rows, 0)
		return nil, err
	}
	k.end(c.table.rows, sel.Count())
	return sel, nil
}

// ViewSpan is SelectionCache.View through WhereSpan.
func (c *SelectionCache) ViewSpan(p Predicate, parent *obs.Span) (View, error) {
	sel, err := c.WhereSpan(p, parent)
	if err != nil {
		return View{}, err
	}
	return View{table: c.table, sel: sel}, nil
}

// statsSource names where a view's counts come from, for the kernel spans: a
// full view reads its column's reference-statistics memo, any other view
// scans its selected rows. It is what tells a trace reader why the
// population side of a filter-vs-population step costs next to nothing.
func (v View) statsSource() string {
	if v.full() {
		return "memo"
	}
	return "scan"
}

// CountsForSpan is View.CountsFor with a kernel span under parent. A view
// that is not full also records the kernel that counts it (kernel:
// planes|scan, Column.countKernel).
func (v View) CountsForSpan(name string, categories []string, parent *obs.Span) ([]int, error) {
	if parent == nil {
		return v.CountsFor(name, categories)
	}
	k := startKernel(parent, v.table.execPool(), nil, "view.counts_for")
	k.span.Set("column", name)
	k.span.Set("source", v.statsSource())
	out, err := v.CountsFor(name, categories)
	if err != nil {
		k.span.Set("error", err.Error())
	} else if !v.full() {
		c, _ := v.table.categoricalColumn(name)
		k.span.Set("kernel", c.countKernel())
	}
	k.end(v.sel.n, v.sel.count)
	return out, err
}

// BinCountsSpan is View.BinCounts with a kernel span under parent.
func (v View) BinCountsSpan(name string, bins int, parent *obs.Span) ([]int, error) {
	if parent == nil {
		return v.BinCounts(name, bins)
	}
	k := startKernel(parent, v.table.execPool(), nil, "view.bin_counts")
	k.span.Set("column", name)
	k.span.Set("bins", bins)
	k.span.Set("source", v.statsSource())
	out, ba, err := v.binCounts(name, bins)
	if err != nil {
		k.span.Set("error", err.Error())
	} else if ba.codes != nil {
		k.span.Set("encoding", "byte")
	} else {
		k.span.Set("encoding", "wide")
	}
	k.end(v.sel.n, v.sel.count)
	return out, err
}
