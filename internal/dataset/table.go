// Package dataset provides the columnar data substrate that the AWARE
// reproduction explores: typed columns, filter predicates and filter chains,
// group-by/histogram aggregation, random sampling, hold-out splits, column
// shuffling (for building randomised null datasets) and CSV import/export. It
// is intentionally small — a visualization front-end needs counts, group-bys
// and filtered sub-populations, not a full query engine — but it is the same
// substrate every experiment in the paper runs on.
//
// Since the internal/colstore split, Table is a query facade: the physical
// column vectors (dictionary codes, float/int/bool payloads, dictionaries)
// are owned by a colstore.Store, and the Column fields the kernels scan alias
// the store's slices directly. That makes every table snapshottable
// (Table.Snapshot) and every snapshot servable (OpenSnapshot mmaps the file
// and wraps it in a Table with zero re-parse), without the kernels changing
// at all.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"aware/internal/colstore"
)

// ColumnType enumerates the supported column types.
type ColumnType int

const (
	// Float64 columns hold continuous numeric values.
	Float64 ColumnType = iota
	// Int64 columns hold discrete numeric values.
	Int64
	// Categorical columns hold strings drawn from a (usually small) domain.
	Categorical
	// Bool columns hold binary values.
	Bool
)

// String implements fmt.Stringer.
func (t ColumnType) String() string {
	switch t {
	case Float64:
		return "float64"
	case Int64:
		return "int64"
	case Categorical:
		return "categorical"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("ColumnType(%d)", int(t))
	}
}

// Common errors.
var (
	// ErrColumnNotFound is returned when a named column does not exist.
	ErrColumnNotFound = errors.New("dataset: column not found")
	// ErrColumnExists is returned when adding a column whose name is taken.
	ErrColumnExists = errors.New("dataset: column already exists")
	// ErrLengthMismatch is returned when column lengths disagree.
	ErrLengthMismatch = errors.New("dataset: column length mismatch")
	// ErrTypeMismatch is returned when a column is used with the wrong type.
	ErrTypeMismatch = errors.New("dataset: column type mismatch")
	// ErrEmptyTable is returned when an operation needs at least one row.
	ErrEmptyTable = errors.New("dataset: empty table")
)

// kindOfType maps the dataset-level column type to its colstore kind. The
// numeric values coincide, but the mapping is spelled out so neither
// enumeration silently constrains the other.
func kindOfType(t ColumnType) colstore.Kind {
	switch t {
	case Float64:
		return colstore.Float64
	case Int64:
		return colstore.Int64
	case Categorical:
		return colstore.Categorical
	case Bool:
		return colstore.Bool
	default:
		panic(fmt.Sprintf("dataset: unknown column type %d", int(t)))
	}
}

// typeOfKind inverts kindOfType.
func typeOfKind(k colstore.Kind) ColumnType {
	switch k {
	case colstore.Float64:
		return Float64
	case colstore.Int64:
		return Int64
	case colstore.Categorical:
		return Categorical
	case colstore.Bool:
		return Bool
	default:
		panic(fmt.Sprintf("dataset: unknown column kind %d", int(k)))
	}
}

// Column is a named, typed vector of values: the query-facing view of one
// colstore.Column. The unexported slices alias the physical column's vectors
// (which may in turn alias a read-only mmap'd snapshot), so the vectorized
// predicate kernels in selection.go scan storage-owned memory directly —
// there is no copy between the storage engine and the execution engine.
//
// Categorical columns are dictionary-encoded: dict holds the sorted distinct
// values, codes holds one uint32 per row indexing into dict, and codeOf
// inverts the dictionary. The kernels scan codes instead of comparing
// strings; row-at-a-time string access is a dict lookup, so no per-row string
// payload exists at all. Bool columns need no explicit dictionary — their
// native []bool representation is already the two-code encoding.
//
// The reference-statistics memo (ref) is the one mutable part of a column;
// see refStats. A column must not be copied by value.
type Column struct {
	Name string
	Type ColumnType

	phys *colstore.Column // the storage-engine column the slices below alias

	floats []float64
	ints   []int64
	bools  []bool

	dict   []string          // sorted distinct values (Categorical only)
	codes  []uint32          // per-row index into dict (Categorical only)
	codeOf map[string]uint32 // value -> code (Categorical only)

	ref refStats
}

// wrapColumn builds the facade over a physical column.
func wrapColumn(p *colstore.Column) *Column {
	return &Column{
		Name:   p.Name,
		Type:   typeOfKind(p.Kind),
		phys:   p,
		floats: p.Floats,
		ints:   p.Ints,
		bools:  p.Bools,
		dict:   p.Dict,
		codes:  p.Codes,
		codeOf: p.CodeOf,
	}
}

// NewFloatColumn builds a Float64 column.
func NewFloatColumn(name string, values []float64) *Column {
	return wrapColumn(colstore.NewFloatColumn(name, values))
}

// NewIntColumn builds an Int64 column.
func NewIntColumn(name string, values []int64) *Column {
	return wrapColumn(colstore.NewIntColumn(name, values))
}

// NewCategoricalColumn builds a Categorical column, dictionary-encoding the
// values (the input slice is not retained).
func NewCategoricalColumn(name string, values []string) *Column {
	return wrapColumn(colstore.NewCategoricalColumn(name, values))
}

// NewBoolColumn builds a Bool column.
func NewBoolColumn(name string, values []bool) *Column {
	return wrapColumn(colstore.NewBoolColumn(name, values))
}

// Len returns the number of rows in the column.
func (c *Column) Len() int {
	switch c.Type {
	case Float64:
		return len(c.floats)
	case Int64:
		return len(c.ints)
	case Categorical:
		return len(c.codes)
	case Bool:
		return len(c.bools)
	default:
		return 0
	}
}

// Float returns the float value at row i (Float64 and Int64 columns).
func (c *Column) Float(i int) (float64, error) {
	switch c.Type {
	case Float64:
		return c.floats[i], nil
	case Int64:
		return float64(c.ints[i]), nil
	default:
		return math.NaN(), fmt.Errorf("%w: %s is %s, not numeric", ErrTypeMismatch, c.Name, c.Type)
	}
}

// String returns the categorical value at row i. Bool columns stringify to
// "true"/"false"; numeric columns return an error.
func (c *Column) StringAt(i int) (string, error) {
	switch c.Type {
	case Categorical:
		return c.dict[c.codes[i]], nil
	case Bool:
		if c.bools[i] {
			return "true", nil
		}
		return "false", nil
	default:
		return "", fmt.Errorf("%w: %s is %s, not categorical", ErrTypeMismatch, c.Name, c.Type)
	}
}

// Bool returns the boolean value at row i (Bool columns only).
func (c *Column) Bool(i int) (bool, error) {
	if c.Type != Bool {
		return false, fmt.Errorf("%w: %s is %s, not bool", ErrTypeMismatch, c.Name, c.Type)
	}
	return c.bools[i], nil
}

// boolLabels is the two-value "dictionary" of a bool column, indexed by its
// code (false = 0, true = 1). Read-only.
var boolLabels = []string{"false", "true"}

// codeLabels returns the value each code of a categorical or bool column
// stands for: the dictionary, or boolLabels.
func (c *Column) codeLabels() []string {
	if c.Type == Bool {
		return boolLabels
	}
	return c.dict
}

// gather returns a new column named name holding c's rows at the given
// indices (int for Select and Shuffle, int32 for a join's row pairs).
func gather[I int | int32](c *Column, indices []I, name string) *Column {
	phys := &colstore.Column{Name: name, Kind: kindOfType(c.Type)}
	switch c.Type {
	case Float64:
		phys.Floats = make([]float64, len(indices))
		for i, idx := range indices {
			phys.Floats[i] = c.floats[idx]
		}
	case Int64:
		phys.Ints = make([]int64, len(indices))
		for i, idx := range indices {
			phys.Ints[i] = c.ints[idx]
		}
	case Categorical:
		// Share the (immutable) dictionary and gather the codes directly; the
		// gathered column may no longer contain every dictionary value, which
		// is fine — Categories and ValueCounts report only codes that occur.
		phys.Dict = c.dict
		phys.CodeOf = c.codeOf
		phys.Codes = make([]uint32, len(indices))
		for i, idx := range indices {
			phys.Codes[i] = c.codes[idx]
		}
	case Bool:
		phys.Bools = make([]bool, len(indices))
		for i, idx := range indices {
			phys.Bools[i] = c.bools[idx]
		}
	}
	return wrapColumn(phys)
}

// Table is an immutable-by-convention collection of equal-length columns.
// Tables derived without moving rows (Derive, Shuffle's untouched columns, a
// join that keeps its probe side) share the parent's *Column values, and with
// them the columns' reference-statistics memos.
type Table struct {
	columns []*Column
	byName  map[string]*Column
	rows    int

	// store owns the physical column vectors the facade columns alias. For
	// tables loaded from a snapshot it also owns the file mapping.
	store *colstore.Store

	// pool is the execution pool the parallel kernels run on; nil means the
	// process-wide DefaultPool. It is an atomic pointer so SetPool is safe
	// against kernels running concurrently — the pool is an execution hint
	// only, results are bit-identical whichever pool executes them.
	pool atomic.Pointer[Pool]

	// arena, when set (SetArena), recycles the Selection bitmaps the kernels
	// build; nil means plain heap allocation. Like pool it is an execution
	// hint only — see arena.go.
	arena atomic.Pointer[WordArena]
}

// SetPool pins the table's kernels (Where, selection algebra, view
// aggregations) to the given execution pool; nil restores the process-wide
// DefaultPool. Pass NewPool(1) to force fully sequential, single-goroutine
// execution — the deterministic-debugging configuration.
func (t *Table) SetPool(p *Pool) { t.pool.Store(p) }

// execPool resolves the pool the table's kernels execute on.
func (t *Table) execPool() *Pool {
	if p := t.pool.Load(); p != nil {
		return p
	}
	return DefaultPool()
}

// refStats is a column's lazily-filled memo of reference statistics. The
// default hypothesis for a filtered chart (Section 2.3, rule 2) tests the
// filtered distribution against the distribution over the whole dataset,
// which no filter changes: one linear pass per column on first use, then
// every full-table count, category list and histogram is a lookup. Nothing
// is computed when a table is built or opened. The category entries are
// O(dictionary) bytes and the bin counts O(bins); O(rows) are only the byte
// codes of a low-cardinality numeric column that is filtered or binned (one
// byte per row, byteCodes) and the per-row bin assignment of a wide one (four).
//
// Population statistics are a property of a column's values, so the memo
// lives on the Column: every table that holds the same *Column (Derive,
// Shuffle's untouched columns, a join that keeps its probe side) reads and
// fills one memo, and a column built by gathering rows (Select, Split, a
// gathered join, a shuffled column) starts empty. Entries are computed
// outside the lock; when two goroutines race on first use both scan and the
// first store is kept. Stored entries are immutable, so readers are safe.
type refStats struct {
	mu    sync.RWMutex
	codes *codeStats
	bytes *byteCodes
	bins  map[int]*binAssignment // keyed by bin count

	// hits counts lookups answered from the memo, computed the scans that
	// filled it (Table.RefStats).
	hits, computed atomic.Uint64
}

// codeStats is the memoized population side of a categorical or bool column:
// how many rows carry each dictionary code (bool columns: false at 0, true
// at 1) and which values occur at all, in sorted order. Both slices are
// shared by every reader and must never be mutated or handed out.
type codeStats struct {
	counts  []int
	present []string
}

// binAssignment is the memoized result, computed once per (column, bin
// count): the number of rows per bin, the "[lo, hi)" label of each bin, and
// the bin of every row — assign[row] for a wide column, binOf[codes[row]] for
// a byte-encoded one, whose codes are the column's own (byteCodes) and whose
// binOf has one entry per dictionary value.
type binAssignment struct {
	assign []int32
	codes  []uint8
	binOf  []int32
	counts []int
	labels []string
}

// RefStats returns how many reference-statistics lookups (category lists,
// full-table counts, bin assignments, byte encodings) the table's columns
// answered from their memos and how many column scans filled them. A column
// shared with another table counts what either table asked of it.
func (t *Table) RefStats() (hits, computed uint64) {
	for _, c := range t.columns {
		hits += c.ref.hits.Load()
		computed += c.ref.computed.Load()
	}
	return hits, computed
}

// EncodedColumns returns how many of the table's numeric columns are
// byte-encoded so far and the bytes their code vectors hold: what the
// encoding costs in memory, one byte per row per column actually filtered or
// binned.
func (t *Table) EncodedColumns() (columns, bytes int) {
	for _, c := range t.columns {
		c.ref.mu.RLock()
		if enc := c.ref.bytes; enc != nil && enc.dict != nil {
			columns++
			bytes += len(enc.codes)
		}
		c.ref.mu.RUnlock()
	}
	return columns, bytes
}

// memoized returns the memo entry get reads, running compute to fill it on
// first use and recording the result with put. get runs under the read lock
// and again, with put, under the write lock. A failed compute stores nothing.
func memoized[V any](r *refStats, get func() *V, put func(*V), compute func() (*V, error)) (*V, error) {
	r.mu.RLock()
	v := get()
	r.mu.RUnlock()
	if v != nil {
		r.hits.Add(1)
		return v, nil
	}
	v, err := compute()
	if err != nil {
		return nil, err
	}
	r.computed.Add(1)
	r.mu.Lock()
	if prev := get(); prev != nil {
		v = prev // a concurrent caller computed it first; keep one copy
	} else {
		put(v)
	}
	r.mu.Unlock()
	return v, nil
}

// codeStats returns the memoized population tallies of a categorical or bool
// column, scanning the column on first use.
func (c *Column) codeStats() *codeStats {
	get := func() *codeStats { return c.ref.codes }
	put := func(cs *codeStats) { c.ref.codes = cs }
	cs, _ := memoized(&c.ref, get, put, func() (*codeStats, error) {
		cs := &codeStats{}
		if c.Type == Bool {
			trues := 0
			for _, b := range c.bools {
				trues += int(b2u(b))
			}
			cs.counts = []int{len(c.bools) - trues, trues}
		} else {
			cs.counts = make([]int, len(c.dict))
			for _, code := range c.codes {
				cs.counts[code]++
			}
		}
		// The labels are sorted (so is every dictionary), hence so is present.
		labels := c.codeLabels()
		for code, n := range cs.counts {
			if n > 0 {
				cs.present = append(cs.present, labels[code])
			}
		}
		return cs, nil
	})
	return cs
}

// byteCodes is the memoized byte encoding of a numeric column that holds at
// most maxByteDict distinct comparison values — ages, hours, years, ratings:
// categorical columns in disguise. dict lists the distinct values in
// ascending order and codes holds one index into it per row, so the order of
// two codes is the order of their values: a range over values is a range over
// codes (whereRangeTuned) and a bin is a property of the code
// (binAssignment), at one byte read per row instead of eight. A value is
// what the predicates compare, float64(v) for both numeric types, so int64
// values beyond 2^53 share a code exactly where float comparison cannot tell
// them apart, and -0 and +0 share one: codes are compared and binned, never
// decoded. A nil dict records that the column is wide — it holds a NaN, more
// distinct values than a byte can index, or no row at all — and keeps the
// 8-byte kernels.
type byteCodes struct {
	dict  []float64
	codes []uint8
}

const (
	// maxByteDict is the largest dictionary a one-byte code can index.
	maxByteDict = 256
	// encodeSlots sizes the open-addressed value table of a dictionary build:
	// a power of two, four times the largest dictionary, so probes stay short.
	encodeSlotBits = 10
	encodeSlots    = 1 << encodeSlotBits
	// encodeProbe is how many rows a build encodes before it allocates the
	// full code vector; a continuous column gives up well within it.
	encodeProbe = 4096
)

// byteCodes returns the memoized byte encoding of a numeric column, building
// it on first use: one pass over the column.
func (c *Column) byteCodes() *byteCodes {
	get := func() *byteCodes { return c.ref.bytes }
	put := func(enc *byteCodes) { c.ref.bytes = enc }
	enc, _ := memoized(&c.ref, get, put, func() (*byteCodes, error) {
		if c.Type == Int64 {
			return encodeBytes(c.ints), nil
		}
		return encodeBytes(c.floats), nil
	})
	return enc
}

// encodeBytes builds the byte encoding of a column. Each row's value is
// looked up by bit pattern in a small open-addressed table and given the
// code of its first appearance; the pass stops at a NaN or at the 257th
// distinct value. Sorting the values then fixes the final codes, and one
// pass over the bytes renames them.
func encodeBytes[T float64 | int64](col []T) *byteCodes {
	var (
		keys [encodeSlots]uint64 // the bit pattern held by each slot
		used [encodeSlots]uint16 // 1 + the code of the slot's value; 0 is a free slot
		vals []float64           // vals[code], in order of first appearance
	)
	codes := make([]uint8, min(len(col), encodeProbe))
	for i, raw := range col {
		if i == len(codes) {
			codes = append(make([]uint8, 0, len(col)), codes...)[:len(col)]
		}
		v := float64(raw)
		key := math.Float64bits(v)
		if v == 0 {
			key = 0 // -0 and +0 compare equal: one code
		}
		h := (key * 0x9e3779b97f4a7c15) >> (64 - encodeSlotBits) // Fibonacci hashing
		if u := used[h]; u != 0 && keys[h] == key {
			codes[i] = uint8(u - 1) // the common case by far: seen before, no collision
			continue
		}
		if v != v {
			return &byteCodes{}
		}
		for used[h] != 0 && keys[h] != key {
			h = (h + 1) % encodeSlots
		}
		if used[h] == 0 {
			if len(vals) == maxByteDict {
				return &byteCodes{}
			}
			vals = append(vals, v)
			keys[h], used[h] = key, uint16(len(vals))
		}
		codes[i] = uint8(used[h] - 1)
	}
	if len(vals) == 0 {
		return &byteCodes{}
	}
	// A value's first appearance is its dictionary entry, so the smallest and
	// largest entries are bit for bit what a MinMax scan of the column
	// returns, signed zeros included: bin edges do not move.
	dict := slices.Clone(vals)
	slices.Sort(dict)
	var final [maxByteDict]uint8
	for code, v := range vals {
		rank, _ := slices.BinarySearch(dict, v)
		final[code] = uint8(rank)
	}
	for i, code := range codes {
		codes[i] = final[code]
	}
	return &byteCodes{dict: dict, codes: codes}
}

// NewTable builds a table from columns, which must all have the same length
// and distinct names. The columns' physical vectors are handed to a fresh
// colstore.Store (referenced, never copied), which re-validates the storage
// invariants — dictionary order, code ranges — that the facade relies on.
func NewTable(columns ...*Column) (*Table, error) {
	t := &Table{byName: make(map[string]*Column, len(columns))}
	phys := make([]*colstore.Column, len(columns))
	for i, c := range columns {
		if c == nil {
			return nil, fmt.Errorf("dataset: nil column at position %d", i)
		}
		if _, dup := t.byName[c.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrColumnExists, c.Name)
		}
		if i == 0 {
			t.rows = c.Len()
		} else if c.Len() != t.rows {
			return nil, fmt.Errorf("%w: column %q has %d rows, expected %d", ErrLengthMismatch, c.Name, c.Len(), t.rows)
		}
		t.columns = append(t.columns, c)
		t.byName[c.Name] = c
		phys[i] = c.phys
	}
	store, err := colstore.NewStore(phys...)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	t.store = store
	return t, nil
}

// FromStore wraps a colstore.Store — typically one mmap'd from a snapshot —
// in a query facade. The table's columns alias the store's vectors; no data
// is copied, so a multi-gigabyte snapshot is queryable the moment the file is
// mapped.
func FromStore(store *colstore.Store) (*Table, error) {
	if store == nil {
		return nil, errors.New("dataset: FromStore requires a store")
	}
	t := &Table{
		store:  store,
		rows:   store.Rows(),
		byName: make(map[string]*Column, store.NumColumns()),
	}
	for _, p := range store.Columns() {
		c := wrapColumn(p)
		t.columns = append(t.columns, c)
		t.byName[c.Name] = c
	}
	return t, nil
}

// Store returns the storage engine behind the table.
func (t *Table) Store() *colstore.Store { return t.store }

// Snapshot persists the table's store as a columnar snapshot at path
// (atomically: temp file + rename). The snapshot re-opens with OpenSnapshot.
func (t *Table) Snapshot(path string) error { return t.store.WriteSnapshot(path) }

// OpenSnapshot maps a snapshot file written by Snapshot (or the colstore
// ingesters) and wraps it in a Table. On platforms with mmap the table serves
// queries straight from the page cache with zero re-parse; elsewhere the file
// is read into the heap. Close releases the mapping.
func OpenSnapshot(path string) (*Table, error) {
	store, err := colstore.Open(path)
	if err != nil {
		return nil, err
	}
	return FromStore(store)
}

// Close releases the table's snapshot mapping, if any. After Close the
// table's columns are invalid; only call it when no query still runs against
// the table. Heap-backed tables are unaffected and Close is idempotent.
func (t *Table) Close() error { return t.store.Close() }

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return t.rows }

// NumColumns returns the number of columns.
func (t *Table) NumColumns() int { return len(t.columns) }

// ColumnNames returns the column names in declaration order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.columns))
	for i, c := range t.columns {
		names[i] = c.Name
	}
	return names
}

// Column returns the named column.
func (t *Table) Column(name string) (*Column, error) {
	c, ok := t.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrColumnNotFound, name)
	}
	return c, nil
}

// HasColumn reports whether the named column exists.
func (t *Table) HasColumn(name string) bool {
	_, ok := t.byName[name]
	return ok
}

// Select returns a new table restricted to the rows at the given indices.
func (t *Table) Select(indices []int) (*Table, error) {
	for _, idx := range indices {
		if idx < 0 || idx >= t.rows {
			return nil, fmt.Errorf("dataset: row index %d out of range [0, %d)", idx, t.rows)
		}
	}
	cols := make([]*Column, len(t.columns))
	for i, c := range t.columns {
		cols[i] = gather(c, indices, c.Name)
	}
	sub, err := NewTable(cols...)
	if err != nil {
		return nil, err
	}
	// Derived tables (hold-out halves, samples, materialized views) inherit
	// the parent's execution pool, so pinning a table pins its lineage.
	sub.pool.Store(t.pool.Load())
	return sub, nil
}

// Floats returns the numeric values of the named column (Float64 or Int64).
func (t *Table) Floats(name string) ([]float64, error) {
	c, err := t.numericColumn(name)
	if err != nil {
		return nil, err
	}
	return c.floatValues(), nil
}

// floatValues returns a fresh copy of a numeric column's values as float64s.
func (c *Column) floatValues() []float64 {
	out := make([]float64, c.Len())
	if c.Type == Float64 {
		copy(out, c.floats)
		return out
	}
	for i, v := range c.ints {
		out[i] = float64(v)
	}
	return out
}

// Strings returns the categorical (or stringified boolean) values of the
// named column.
func (t *Table) Strings(name string) ([]string, error) {
	c, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	out := make([]string, c.Len())
	for i := range out {
		v, err := c.StringAt(i)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Categories returns the sorted distinct values of a categorical or bool
// column: the values that occur, in dictionary order (the dictionary is
// sorted). The answer comes from the column's reference-statistics memo — one
// column scan on first use — and is a fresh slice the caller may keep or
// modify.
func (t *Table) Categories(name string) ([]string, error) {
	c, err := t.categoricalColumn(name)
	if err != nil {
		return nil, err
	}
	return slices.Clone(c.codeStats().present), nil
}

// ValueCounts returns the count of each distinct value of a categorical or
// bool column, keyed by value, from the reference-statistics memo.
func (t *Table) ValueCounts(name string) (map[string]int, error) {
	c, err := t.categoricalColumn(name)
	if err != nil {
		return nil, err
	}
	labels := c.codeLabels()
	counts := make(map[string]int)
	for code, n := range c.codeStats().counts {
		if n > 0 {
			counts[labels[code]] = n
		}
	}
	return counts, nil
}

// Shuffle returns a new table whose named columns have been independently
// permuted using rng, destroying any association between them and the rest of
// the table. Shuffling every column yields the "randomized" dataset of
// Exp. 2 in which every discovery is false by construction. Columns not named
// are shared (not copied).
func (t *Table) Shuffle(rng *rand.Rand, columns ...string) (*Table, error) {
	if rng == nil {
		return nil, errors.New("dataset: Shuffle requires a random source")
	}
	shuffleSet := make(map[string]bool, len(columns))
	for _, name := range columns {
		if !t.HasColumn(name) {
			return nil, fmt.Errorf("%w: %q", ErrColumnNotFound, name)
		}
		shuffleSet[name] = true
	}
	cols := make([]*Column, len(t.columns))
	for i, c := range t.columns {
		if !shuffleSet[c.Name] {
			cols[i] = c
			continue
		}
		perm := rng.Perm(t.rows)
		cols[i] = gather(c, perm, c.Name)
	}
	shuffled, err := NewTable(cols...)
	if err != nil {
		return nil, err
	}
	shuffled.pool.Store(t.pool.Load())
	return shuffled, nil
}

// ShuffleAll returns a copy of the table with every column independently
// permuted.
func (t *Table) ShuffleAll(rng *rand.Rand) (*Table, error) {
	return t.Shuffle(rng, t.ColumnNames()...)
}

// Sample returns a uniform random sample (without replacement) containing
// fraction*NumRows rows, at least 1 when the table is non-empty.
func (t *Table) Sample(rng *rand.Rand, fraction float64) (*Table, error) {
	if rng == nil {
		return nil, errors.New("dataset: Sample requires a random source")
	}
	if fraction <= 0 || fraction > 1 || math.IsNaN(fraction) {
		return nil, fmt.Errorf("dataset: sample fraction must be in (0, 1], got %v", fraction)
	}
	if t.rows == 0 {
		return nil, ErrEmptyTable
	}
	n := int(math.Round(fraction * float64(t.rows)))
	if n < 1 {
		n = 1
	}
	if n > t.rows {
		n = t.rows
	}
	perm := rng.Perm(t.rows)
	return t.Select(perm[:n])
}

// Split partitions the rows into an exploration set with the given fraction of
// the rows and a validation (hold-out) set with the remainder, as in the
// hold-out discussion of Section 4.1.
func (t *Table) Split(rng *rand.Rand, explorationFraction float64) (exploration, validation *Table, err error) {
	if rng == nil {
		return nil, nil, errors.New("dataset: Split requires a random source")
	}
	if explorationFraction <= 0 || explorationFraction >= 1 || math.IsNaN(explorationFraction) {
		return nil, nil, fmt.Errorf("dataset: exploration fraction must be in (0, 1), got %v", explorationFraction)
	}
	if t.rows < 2 {
		return nil, nil, ErrEmptyTable
	}
	perm := rng.Perm(t.rows)
	cut := int(math.Round(explorationFraction * float64(t.rows)))
	if cut < 1 {
		cut = 1
	}
	if cut >= t.rows {
		cut = t.rows - 1
	}
	exploration, err = t.Select(perm[:cut])
	if err != nil {
		return nil, nil, err
	}
	validation, err = t.Select(perm[cut:])
	if err != nil {
		return nil, nil, err
	}
	return exploration, validation, nil
}
