package dataset

import (
	"sync"
	"sync/atomic"
)

// This file is the selection arena: a sync.Pool-backed recycler for the
// bitmap storage behind Selections. Every Selection over an n-row table
// carries exactly (n+63)/64 words, so all selections of one table are
// interchangeable storage — the arena exploits that by pooling whole
// released Selections (header + words) and re-issuing them to the next
// kernel. In steady state (a served dataset under load, or a session
// re-filtering step after step) the predicate kernels allocate zero words:
// every compile draws its output and its And/Or intermediates from the pool
// and the intermediates go straight back.
//
// Ownership contract: an arena-backed selection is reference-counted, and
// whoever drops its last reference zeroes its words and returns them to the
// arena. Table.Where returns one reference, exclusively owned: the
// combinator loop inside Table.where releases its intermediates (they never
// escape), Filter releases its private compile, and benchmarks release
// explicitly. A SelectionCache keeps a compile's reference as its own and
// hands every Where/View caller a new one, taken under its lock, so an
// eviction drops only the cache's reference and a bitmap some caller still
// reads stays intact until that caller's Release. A reference that is never
// released is only garbage; a Release after the reader is done is what
// recycles. Releasing early is not safe: the words go to the next kernel.

// WordArena recycles the Selections of one table size. All methods are safe
// for concurrent use; a server shares one arena per registered dataset
// across every session exploring it.
type WordArena struct {
	// words is the word count of every pooled selection: (rows+63)/64 for
	// the table the arena was sized for. Tables whose row count disagrees
	// (hold-out halves, samples) silently fall back to heap allocation.
	words int
	rows  int
	pool  sync.Pool

	fresh    atomic.Uint64 // selections built with freshly allocated words
	recycled atomic.Uint64 // selections re-issued from the pool
	returned atomic.Uint64 // selections released back into the pool
}

// ArenaStats is a snapshot of an arena's counters — the wire form served by
// /debug/metrics and recorded on traced kernel spans. In steady
// state FreshSelections stops growing: every new selection is a recycled
// one.
type ArenaStats struct {
	Rows               int    `json:"rows"`
	WordsPerSelection  int    `json:"words_per_selection"`
	FreshSelections    uint64 `json:"fresh_selections"`
	RecycledSelections uint64 `json:"recycled_selections"`
	ReturnedSelections uint64 `json:"returned_selections"`
}

// NewWordArena builds an arena for selections over rows rows.
func NewWordArena(rows int) *WordArena {
	if rows < 0 {
		rows = 0
	}
	return &WordArena{words: (rows + 63) / 64, rows: rows}
}

// Stats returns a snapshot of the arena's counters.
func (a *WordArena) Stats() ArenaStats {
	return ArenaStats{
		Rows:               a.rows,
		WordsPerSelection:  a.words,
		FreshSelections:    a.fresh.Load(),
		RecycledSelections: a.recycled.Load(),
		ReturnedSelections: a.returned.Load(),
	}
}

// newSelection returns an all-clear selection over n rows, reusing a
// released one when the pool has it. n must satisfy (n+63)/64 == a.words
// (callers guard via Table.execArena).
func (a *WordArena) newSelection(n int) *Selection {
	s, ok := a.pool.Get().(*Selection)
	if ok {
		a.recycled.Add(1)
		s.n = n
		s.count = 0
		s.pool = nil
	} else {
		a.fresh.Add(1)
		s = &Selection{n: n, words: make([]uint64, a.words), arena: a}
	}
	s.refs.Store(1)
	return s
}

// Release drops one reference to the selection; the last one returns its
// storage to the arena. It is a no-op for heap selections (no arena), so
// callers can release unconditionally. After Release the caller must not
// read the selection: its words may be handed to any concurrent kernel.
// Releasing an exclusively owned selection twice is tolerated (the second
// call no-ops) as long as it was not re-issued in between; a Release that
// would drop the last reference while a SelectionCache still holds the
// selection panics instead of recycling a bitmap the cache serves.
func (s *Selection) Release() {
	if s == nil || s.arena == nil {
		return
	}
	if s.refs.Add(-1) != 0 {
		return
	}
	if s.cached.Load() {
		panic("dataset: Selection released more often than it was taken")
	}
	a := s.arena
	if len(s.words) != a.words {
		// Shouldn't happen (arenas are per-table); drop to the heap rather
		// than poison the pool with a wrong-sized slice.
		s.arena = nil
		return
	}
	// Zero on return, not on re-issue: newSel's empty selection (Or's
	// accumulator, an empty code range) relies on all-clear words, and zeroing
	// here keeps the re-issue path allocation- and work-free.
	clear(s.words)
	s.count = 0
	a.returned.Add(1)
	a.pool.Put(s)
}

// sibling returns an all-clear selection with the same span as s, drawn
// from s's arena when it has one — the allocation the selection algebra
// (And/Or/Not) uses for its outputs, so algebra over arena-backed inputs
// stays arena-backed.
func (s *Selection) sibling() *Selection {
	if a := s.arena; a != nil {
		return a.newSelection(s.n)
	}
	return newSelection(s.n)
}

// SetArena pins the table's predicate kernels to the arena: compiled
// selections and combinator intermediates draw their words from it, and
// Release returns them. Nil detaches the table (kernels allocate from the
// heap, the pre-arena behavior). WithColumn, Derive and a join that keeps
// this table's rows inherit it; an arena sized for a different row count is
// ignored at use sites. Like SetPool it applies table-wide and is safe
// against concurrent kernels.
func (t *Table) SetArena(a *WordArena) { t.arena.Store(a) }

// Arena returns the table's arena, or nil.
func (t *Table) Arena() *WordArena { return t.arena.Load() }

// execArena resolves the arena the table's kernels may allocate from: the
// pinned one, only when its geometry matches the table.
func (t *Table) execArena() *WordArena {
	if a := t.arena.Load(); a != nil && a.words == (t.rows+63)/64 {
		return a
	}
	return nil
}

// newSel returns an all-clear selection over the table's rows — from the
// table's arena when one is pinned — stamped with the table's pool.
func (t *Table) newSel() *Selection {
	if a := t.execArena(); a != nil {
		s := a.newSelection(t.rows)
		s.pool = t.execPool()
		return s
	}
	return t.stamp(newSelection(t.rows))
}

// fullSel is newSel with every row set (the And combinator's identity).
func (t *Table) fullSel() *Selection {
	s := t.newSel()
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.maskTail()
	s.count = s.n
	return s
}
