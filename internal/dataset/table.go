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

// typeOfKind maps a colstore kind to the dataset-level column type. The
// numeric values coincide, but the mapping is spelled out so neither
// enumeration silently constrains the other.
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
// A coded column holds one dictionary code per row at the width its
// dictionary was stored with: width bytes, in codes8, codes16 or codes32.
// Every categorical column is coded, dict holding its sorted distinct values
// and codeOf inverting them; so is every bool column, its own byte codes
// (false 0, true 1) under the labels boolLabels; and so is a numeric column
// stored with at most 256 distinct values, values[code] the code's value.
// The kernels compare, count and bin codes; only reads that hand values out
// (Float, View.Floats, EvalExpr, WriteCSV) decode them. A numeric column
// with more distinct values, or a NaN, is wide: its rows are floats or ints.
//
// A mapped column (a derive over one coded column, a dimension join's right
// column) stores no row: its rows hold the codes of its source, src, and
// via[k] is its own code where src holds k. Its width, dictionary and decode
// tables are its own; codes8, codes16 and codes32 are nil. Each reader
// composes via into the per-code table it reads once per call (throughVia,
// fold), then runs the source's codes through the kernel an unmapped column
// takes. src is never mapped itself: a column mapped over a mapped one maps
// over its source.
//
// The reference-statistics memo (ref) is the one mutable part of a column;
// see refStats. A column must not be copied by value.
type Column struct {
	Name string
	Type ColumnType

	phys *colstore.Column // the storage-engine column the slices below alias

	floats []float64 // a wide Float64 column's rows
	ints   []int64   // a wide Int64 column's rows

	width   int // bytes per code; 0 for a wide numeric column
	codes8  []uint8
	codes16 []uint16
	codes32 []uint32

	dict   []string          // categorical and bool: the value of each code, sorted
	codeOf map[string]uint32 // categorical and bool: value -> code

	// A coded numeric column: values[code] is the code's value as the
	// predicates compare it, float64(v), ascending. Codes of one value — −0
	// and +0, int64 values no float64 tells apart — are neighbours, and rank
	// folds each onto that value's index in distinct, the column's distinct
	// comparison values.
	values   []float64
	rank     []uint8
	distinct []float64

	src *Column  // a mapped column's source
	via []uint32 // a mapped column's own code of each code of src

	ref refStats
}

// boolCodes inverts boolLabels. Read-only.
var boolCodes = map[string]uint32{"false": 0, "true": 1}

// wrapColumn builds the facade over a physical column.
func wrapColumn(p *colstore.Column) *Column { return wrapDecoded(p, nil, nil) }

// wrapDecoded builds the facade over p. When like is not nil it is a column
// over the same Values as p, and a coded numeric p shares its (immutable)
// decode tables instead of building its own. A mapped p reads src, the
// facade over p.Source (built anew when src is nil).
func wrapDecoded(p *colstore.Column, like, src *Column) *Column {
	c := &Column{Name: p.Name, Type: typeOfKind(p.Kind), phys: p, floats: p.Floats, ints: p.Ints,
		width: p.Width, codes8: p.Codes8, codes16: p.Codes16, codes32: p.Codes32, dict: p.Dict, codeOf: p.CodeOf}
	if p.Kind == colstore.Bool {
		c.width, c.codes8, c.dict, c.codeOf = 1, colstore.BoolsAsBytes(p.Bools), boolLabels, boolCodes
	}
	if p.Source != nil {
		if src == nil {
			src = wrapColumn(p.Source)
		}
		c.src, c.via = src, p.Via
	}
	if like != nil {
		c.values, c.rank, c.distinct = like.values, like.rank, like.distinct
		return c
	}
	if n := len(p.Values); n > 0 {
		c.values, c.rank, c.distinct = make([]float64, n), make([]uint8, n), make([]float64, 0, n)
	}
	for code, bits := range p.Values {
		v := math.Float64frombits(bits)
		if p.Kind == colstore.Int64 {
			v = float64(int64(bits))
		}
		if code == 0 || v != c.values[code-1] {
			c.distinct = append(c.distinct, v)
		}
		c.values[code], c.rank[code] = v, uint8(len(c.distinct)-1)
	}
	return c
}

// NewFloatColumn builds a Float64 column, stored as byte codes when it holds
// at most 256 distinct values and no NaN (colstore.NewFloatColumn).
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
func (c *Column) Len() int { return c.phys.Len() }

// StringAt returns the categorical value at row i. Bool columns stringify to
// "true"/"false"; numeric columns return an error.
func (c *Column) StringAt(i int) (string, error) {
	if c.Type != Categorical && c.Type != Bool {
		return "", fmt.Errorf("%w: %s is %s, not categorical", ErrTypeMismatch, c.Name, c.Type)
	}
	return c.dict[c.code(i)], nil
}

// Bool returns the boolean value at row i (Bool columns only).
func (c *Column) Bool(i int) (bool, error) {
	if c.Type != Bool {
		return false, fmt.Errorf("%w: %s is %s, not bool", ErrTypeMismatch, c.Name, c.Type)
	}
	return c.code(i) == 1, nil
}

// boolLabels is the two-value "dictionary" of a bool column, indexed by its
// code (false = 0, true = 1). Read-only.
var boolLabels = []string{"false", "true"}

// code returns the code of row i of a coded column.
func (c *Column) code(i int) int {
	if c.via != nil {
		return int(c.via[c.src.code(i)])
	}
	switch c.width {
	case 1:
		return int(c.codes8[i])
	case 2:
		return int(c.codes16[i])
	default:
		return int(c.codes32[i])
	}
}

// dictLen returns how many codes a coded column's dictionary spans.
func (c *Column) dictLen() int {
	if c.values != nil {
		return len(c.values)
	}
	return len(c.dict)
}

// floatAt returns row i of a numeric column as the predicates compare it.
func (c *Column) floatAt(i int) float64 {
	switch {
	case c.width != 0:
		return c.values[c.code(i)]
	case c.Type == Float64:
		return c.floats[i]
	default:
		return float64(c.ints[i])
	}
}

// intAt returns row i of an Int64 column, exactly.
func (c *Column) intAt(i int) int64 {
	if c.width != 0 {
		return int64(c.phys.Values[c.code(i)])
	}
	return c.ints[i]
}

// rows returns the column whose code vector holds c's rows: c, or the source
// of a mapped column.
func (c *Column) rows() *Column {
	if c.src != nil {
		return c.src
	}
	return c
}

// codeVector returns the codes of an unmapped coded column's rows: a
// []uint8, []uint16 or []uint32.
func (c *Column) codeVector() any {
	switch c.width {
	case 1:
		return c.codes8
	case 2:
		return c.codes16
	default:
		return c.codes32
	}
}

// throughVia returns a table over c's own codes as a table over the codes
// its rows hold: perCode itself for an unmapped column, perCode[via[k]] at
// each source code k of a mapped one.
func throughVia[T any](c *Column, perCode []T) []T {
	if c.via == nil {
		return perCode
	}
	out := make([]T, len(c.via))
	for k, own := range c.via {
		out[k] = perCode[own]
	}
	return out
}

// fold sums counts over the codes c's rows hold into counts over its own
// codes: counts itself for an unmapped column.
func (c *Column) fold(counts []int) []int {
	if c.via == nil {
		return counts
	}
	own := make([]int, c.dictLen())
	for k, n := range counts {
		own[c.via[k]] += n
	}
	return own
}

// rowValues returns the code vector a coded numeric column's rows hold and
// the value of each of its codes, composed through via for a mapped column.
func (c *Column) rowValues() (codes any, values []float64) {
	return c.rows().codeVector(), throughVia(c, c.values)
}

// decodeRows writes values[k] into dst for the code k of each row of codes —
// a []uint8, []uint16 or []uint32 — from row lo on.
func decodeRows(dst []float64, codes any, values []float64, lo int) {
	switch cs := codes.(type) {
	case []uint8:
		decodeCodes(dst, cs[lo:lo+len(dst)], values)
	case []uint16:
		decodeCodes(dst, cs[lo:lo+len(dst)], values)
	case []uint32:
		decodeCodes(dst, cs[lo:lo+len(dst)], values)
	}
}

func decodeCodes[C colstore.Code](dst []float64, codes []C, values []float64) {
	for i, k := range codes {
		dst[i] = values[k]
	}
}

// rowIndex is a row number (Select, a join's pairs) or a key code (byKeyCode).
type rowIndex interface{ int | int32 | colstore.Code }

// gather returns a new column named name holding the rows of p at the given
// indices, where p is c's physical column or rows gathered from it. A coded
// column keeps its width and shares p's (immutable) dictionary and c's decode
// tables (built anew when c is nil), which may then list values no gathered
// row holds — fine, the memos count only what occurs. A wide numeric column
// is stored anew, by the one encoding rule.
func gather[I rowIndex](c *Column, p *colstore.Column, indices []I, name string) *Column {
	p = gatherPhys(p, indices)
	switch {
	case p.Width == 0 && p.Kind == colstore.Float64:
		return NewFloatColumn(name, p.Floats)
	case p.Width == 0 && p.Kind == colstore.Int64:
		return NewIntColumn(name, p.Ints)
	}
	p.Name = name
	return wrapDecoded(p, c, nil)
}

// gatherPhys returns p's rows at the given indices as p stores them; a
// mapped p's come out with its own codes written out.
func gatherPhys[I rowIndex](p *colstore.Column, indices []I) *colstore.Column {
	if p.Source != nil {
		return colstore.NewMappedColumn(p.Name, p, gatherPhys(p.Source, indices), p.Via).Materialize()
	}
	out := &colstore.Column{Name: p.Name, Kind: p.Kind, Width: p.Width, Dict: p.Dict, CodeOf: p.CodeOf, Values: p.Values}
	switch {
	case p.Kind == colstore.Bool:
		out.Bools = gatherRows(p.Bools, indices)
	case p.Width == 1:
		out.Codes8 = gatherRows(p.Codes8, indices)
	case p.Width == 2:
		out.Codes16 = gatherRows(p.Codes16, indices)
	case p.Width == 4:
		out.Codes32 = gatherRows(p.Codes32, indices)
	case p.Kind == colstore.Float64:
		out.Floats = gatherRows(p.Floats, indices)
	default:
		out.Ints = gatherRows(p.Ints, indices)
	}
	return out
}

func gatherRows[T any, I rowIndex](rows []T, indices []I) []T {
	out := make([]T, len(indices))
	for i, idx := range indices {
		out[i] = rows[idx]
	}
	return out
}

// Table is an immutable-by-convention collection of equal-length columns.
// Tables derived without moving rows (Derive, Shuffle's untouched columns, a
// join that keeps every left row) share the parent's *Column values, and with
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
	full  atomic.Pointer[Selection] // every row, built on first use (fullRows)
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
// is computed when a table is built or opened; only a column built from
// another's codes arrives with its code tallies (seedCodes). The tallies are
// O(dictionary) and the bin counts O(bins); O(rows) are the per-row bin
// assignment of a wide numeric column (four bytes per row) and the bit
// planes of a byte-coded column of at most eight codes (planes.go: at most
// 3/8 byte per row), which every later count over a view that is not full
// reads, filled by the first such count.
//
// Population statistics are a property of a column's values, so the memo
// lives on the Column: every table that holds the same *Column (Derive,
// Shuffle's untouched columns, a join that keeps every left row) reads and
// fills one memo, and a column built by gathering rows (Select, Split, a
// gathered join, a shuffled column) starts empty. Entries are computed
// outside the lock; when two goroutines race on first use both scan and the
// first store is kept — except the planes, whose racing first users wait on
// planeMu so that one of them builds them. Stored entries are immutable, so
// readers are safe.
type refStats struct {
	mu     sync.RWMutex
	codes  []int                  // how many rows hold each code of a coded column
	bins   map[int]*binAssignment // keyed by bin count
	planes *codePlanes            // a byte-coded column's bit planes (2 to 8 codes)

	planeMu sync.Mutex // held while the planes are built

	// hits counts lookups answered from the memo, computed the scans that
	// filled it (Table.RefStats).
	hits, computed atomic.Uint64
}

// binAssignment is the memoized result, computed once per (column, bin
// count): the number of rows per bin, the "[lo, hi)" label of each bin, and
// the bin of every row — assign[row] for a wide column, binOf[codes[row]] for
// a coded one, whose codes are the column's own (a []uint8), or a mapped
// column's source's (a []uint8, []uint16 or []uint32), and whose binOf has
// one entry per code. A wide column's assign is a code column CrossCounts
// reads.
type binAssignment struct {
	assign []uint32
	codes  any
	binOf  []int32
	counts []int
	labels []string
}

// RefStats returns how many reference-statistics lookups (category lists,
// full-table counts, bin assignments, bit planes) the table's columns
// answered from their memos and how many column scans filled them. A column
// shared with another table counts what either table asked of it.
func (t *Table) RefStats() (hits, computed uint64) {
	for _, c := range t.columns {
		hits += c.ref.hits.Load()
		computed += c.ref.computed.Load()
	}
	return hits, computed
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

// codeTallies returns the memoized population tallies of a coded column —
// how many rows hold each code — scanning the column on first use unless it
// was built with them (seedCodes). The slice is shared by every reader and
// must never be mutated or handed out.
func (c *Column) codeTallies() []int {
	get := func() *[]int {
		if c.ref.codes == nil {
			return nil
		}
		return &c.ref.codes // set once, never written again
	}
	put := func(counts *[]int) { c.ref.codes = *counts }
	counts, _ := memoized(&c.ref, get, put, func() (*[]int, error) {
		if c.via != nil {
			counts := c.fold(c.src.codeTallies())
			return &counts, nil
		}
		counts := make([]int, c.dictLen())
		switch c.width {
		case 1:
			tallyCodes(c.codes8, counts)
		case 2:
			tallyCodes(c.codes16, counts)
		default:
			tallyCodes(c.codes32, counts)
		}
		return &counts, nil
	})
	return *counts
}

// seedCodes records the per-code tallies of a column under construction,
// known from the column it was built from (Derive's source, a dimension
// join's left key), so that no reader scans or folds them; nil records
// nothing.
func (c *Column) seedCodes(counts []int) { c.ref.codes = counts }

// tallyCodes adds one to counts[code] for every code.
func tallyCodes[C colstore.Code](codes []C, counts []int) {
	for _, code := range codes {
		counts[code]++
	}
}

// valueRange returns the smallest and the largest value the rows of a coded
// numeric column hold, given their per-code counts: bit for bit what
// stats.MinMax returns over them — of −0 and +0, which compare equal, the one
// in the first row holding either. A column without a row has no range.
func (c *Column) valueRange(counts []int) []float64 {
	lo := slices.IndexFunc(counts, func(n int) bool { return n > 0 })
	if lo < 0 {
		return nil
	}
	hi := len(counts) - 1
	for counts[hi] == 0 {
		hi--
	}
	ends := []float64{c.values[lo], c.values[hi]}
	for i, v := range ends {
		if v == 0 {
			ends[i] = firstZero(c.rowValues())
		}
	}
	return ends
}

// firstZero returns the value of the first row whose value is ±0, given the
// rows' codes — a []uint8, []uint16 or []uint32 — and each code's value.
func firstZero(codes any, values []float64) float64 {
	switch cs := codes.(type) {
	case []uint8:
		return firstZeroOf(cs, values)
	case []uint16:
		return firstZeroOf(cs, values)
	default:
		return firstZeroOf(cs.([]uint32), values)
	}
}

func firstZeroOf[C colstore.Code](codes []C, values []float64) float64 {
	for _, k := range codes {
		if values[k] == 0 {
			return values[k]
		}
	}
	return 0
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
		cols[i] = gather(c, c.phys, indices, c.Name)
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
	if c.width != 0 {
		codes, values := c.rowValues()
		decodeRows(out, codes, values, 0)
		return out
	}
	for i := range out {
		out[i] = c.floatAt(i)
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
	counts := c.codeTallies()
	out := make([]string, 0, len(counts))
	for code, n := range counts {
		if n > 0 {
			out = append(out, c.dict[code])
		}
	}
	return out, nil
}

// ValueCounts returns the count of each distinct value of a categorical or
// bool column, keyed by value, from the reference-statistics memo.
func (t *Table) ValueCounts(name string) (map[string]int, error) {
	c, err := t.categoricalColumn(name)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int)
	for code, n := range c.codeTallies() {
		if n > 0 {
			counts[c.dict[code]] = n
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
		cols[i] = gather(c, c.phys, perm, c.Name)
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
