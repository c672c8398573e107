// Package colstore is the columnar storage engine under the dataset layer: an
// explicit structure-of-arrays column store plus a versioned, CRC-guarded,
// mmap-able binary snapshot format.
//
// A Store owns the physical representation every query in this repository
// runs over — dictionary codes at the narrowest width that holds them, dense
// float64 / int64 / bool value vectors, and the per-column metadata (name,
// kind, dictionary). The representation is decided once, when a column is
// built or ingested (encoding.go), and a snapshot stores exactly it, so the
// kernels of dataset.Table scan the file's own bytes.
//
// Stores come from three places:
//
//   - NewStore wraps in-memory column vectors without copying (the path every
//     dataset.NewTable takes).
//   - Open maps a snapshot file produced by WriteSnapshot or the streaming
//     ingesters: on little-endian unixes the column vectors alias the mmap'd
//     file, so a multi-gigabyte dataset is served with no parse and no heap
//     copy, and any number of processes share one page-cache copy.
//   - IngestCSV / IngestJSONL stream row-oriented text into a snapshot file
//     in O(1) row memory (see ingest.go).
//
// Immutability contract: every slice and map reachable from a Store is
// read-only after construction. The dataset layer, the snapshot writer and
// the mmap loader all rely on this — mutating a loaded column is at best a
// data race and at worst a write fault on a read-only mapping.
package colstore

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
)

// Kind enumerates the physical column representations. The values are part of
// the snapshot wire format — never renumber them.
type Kind uint8

const (
	// Float64 columns hold 8-byte IEEE-754 values.
	Float64 Kind = 0
	// Int64 columns hold 8-byte signed integers.
	Int64 Kind = 1
	// Categorical columns hold dictionary codes plus a sorted string
	// dictionary.
	Categorical Kind = 2
	// Bool columns hold 1-byte values (0 or 1).
	Bool Kind = 3

	numKinds = 4
)

// String implements fmt.Stringer; the names double as the schema-file and
// /v1/datasets wire spelling.
func (k Kind) String() string {
	switch k {
	case Float64:
		return "float64"
	case Int64:
		return "int64"
	case Categorical:
		return "categorical"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind inverts Kind.String.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "float64":
		return Float64, nil
	case "int64":
		return Int64, nil
	case "categorical":
		return Categorical, nil
	case "bool":
		return Bool, nil
	default:
		return 0, fmt.Errorf("colstore: unknown column kind %q", s)
	}
}

// MarshalText implements encoding.TextMarshaler (schema files, /v1/datasets).
func (k Kind) MarshalText() ([]byte, error) {
	if k >= numKinds {
		return nil, fmt.Errorf("colstore: unknown column kind %d", int(k))
	}
	return []byte(k.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *Kind) UnmarshalText(text []byte) error {
	parsed, err := ParseKind(string(text))
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// Column is one named, typed column vector. A coded column — every
// categorical one, and a numeric one with at most MaxValues distinct values
// and no NaN — holds one dictionary code per row, Width bytes wide, in the
// one of Codes8, Codes16 and Codes32 that Width names, plus its dictionary:
// Dict and the inverse map CodeOf for a categorical column, Values for a
// numeric one. Every other column stores its rows in Floats, Ints or Bools.
// The constructors and RowBuilder decide which (encoding.go). All fields are
// read-only after construction (they may alias a read-only file mapping).
type Column struct {
	Name string
	Kind Kind

	// Width is a coded column's code width in bytes — 1, 2 or 4 — and 0 for
	// a column that stores its rows.
	Width int

	Floats []float64 // Float64, uncoded
	Ints   []int64   // Int64, uncoded
	Bools  []bool    // Bool

	Codes8  []uint8  // Width 1: per-row index into the dictionary
	Codes16 []uint16 // Width 2
	Codes32 []uint32 // Width 4

	Dict   []string          // Categorical: sorted distinct values
	CodeOf map[string]uint32 // Categorical: value -> code

	// Values is a coded numeric column's dictionary: the bit patterns of its
	// values (math.Float64bits, or an int64's two's complement), ascending by
	// value (orderKey). −0 and +0, or two int64 values no float64 tells
	// apart, are two neighbouring entries.
	Values []uint64

	// Source and Via make a mapped column, which stores no row: its rows are
	// Source's, row i holding its own code Via[k] where Source's row i holds
	// code k. Source is a coded or bool column that is not mapped itself;
	// Kind, Width and the dictionary (Dict and CodeOf, or Values; a bool's
	// two codes) are the mapped column's own, what it would be stored with.
	// A snapshot holds the codes written out (Materialize), never a mapping.
	Source *Column
	Via    []uint32

	valid atomic.Bool // validate passed: a column shared by many stores is checked once
}

// Len returns the column's row count.
func (c *Column) Len() int {
	switch {
	case c.Source != nil:
		return c.Source.Len()
	case c.Width == 1:
		return len(c.Codes8)
	case c.Width == 2:
		return len(c.Codes16)
	case c.Width == 4:
		return len(c.Codes32)
	case c.Kind == Float64:
		return len(c.Floats)
	case c.Kind == Int64:
		return len(c.Ints)
	default:
		return len(c.Bools)
	}
}

// validate checks the column's structural invariants: a known kind at its
// canonical width (codeWidth of a categorical dictionary; byte codes into
// 1..MaxValues values, or none, for a numeric column; none for a bool one),
// a dictionary sorted without duplicates — Values ascending by orderKey and
// free of NaN — and every code in range: every row's, or for a mapped column
// every Via entry's, which bounds every row's as well, Source's codes having
// been checked in turn. It is the shared gatekeeper of NewStore and the
// snapshot loader, so a corrupt or hand-rolled snapshot can never hand the
// kernels an out-of-range code.
func (c *Column) validate() error {
	if c.valid.Load() {
		return nil
	}
	if c.Name == "" {
		return errors.New("colstore: column with empty name")
	}
	n := len(c.Values)
	switch {
	case c.Kind >= numKinds:
		return fmt.Errorf("colstore: column %q: unknown kind %d", c.Name, int(c.Kind))
	case c.Kind == Categorical:
		if c.Values != nil || c.Width != codeWidth(len(c.Dict)) {
			return fmt.Errorf("colstore: column %q: %d-byte codes for a dictionary of %d entries", c.Name, c.Width, len(c.Dict))
		}
		for i := 1; i < len(c.Dict); i++ {
			if c.Dict[i-1] >= c.Dict[i] {
				return fmt.Errorf("colstore: column %q: dictionary not sorted and unique at entry %d", c.Name, i)
			}
		}
		n = len(c.Dict)
	case c.Width == 0 || c.Kind == Bool:
		if c.Width != 0 || c.Dict != nil || c.Values != nil {
			return fmt.Errorf("colstore: column %q: %s column carries a dictionary", c.Name, c.Kind)
		}
		n = c.dictLen()
	default:
		if c.Dict != nil || c.Width != 1 || n == 0 || n > MaxValues {
			return fmt.Errorf("colstore: column %q: %d-byte codes for %d %s values", c.Name, c.Width, n, c.Kind)
		}
		for i, b := range c.Values {
			if c.Kind == Float64 && isNaN(b) {
				return fmt.Errorf("colstore: column %q: value %d is NaN", c.Name, i)
			}
			if i > 0 && orderKey(c.Kind, c.Values[i-1]) >= orderKey(c.Kind, b) {
				return fmt.Errorf("colstore: column %q: values not ascending at entry %d", c.Name, i)
			}
		}
	}
	if c.Source != nil {
		if err := c.validateVia(n); err != nil {
			return err
		}
	} else if row := firstCodeOutside(c, n); row >= 0 {
		return fmt.Errorf("colstore: column %q: row %d has a code past its dictionary of %d entries", c.Name, row, n)
	}
	c.valid.Store(true)
	return nil
}

// validateVia checks a mapped column over a valid coded or bool column that
// is not mapped itself: no row of its own, one Via entry per Source code, and
// each below n, the length of its own dictionary.
func (c *Column) validateVia(n int) error {
	s := c.Source
	switch {
	case s.Source != nil:
		return fmt.Errorf("colstore: column %q: mapped over the mapped column %q", c.Name, s.Name)
	case s.Width == 0 && s.Kind != Bool || c.Width == 0 && c.Kind != Bool:
		return fmt.Errorf("colstore: column %q: a column mapped over %q must be coded, and so must its source", c.Name, s.Name)
	case c.Floats != nil || c.Ints != nil || c.Bools != nil || c.Codes8 != nil || c.Codes16 != nil || c.Codes32 != nil:
		return fmt.Errorf("colstore: column %q: a mapped column stores rows", c.Name)
	case len(c.Via) != s.dictLen():
		return fmt.Errorf("colstore: column %q: %d mapped codes for the %d codes of %q", c.Name, len(c.Via), s.dictLen(), s.Name)
	}
	if err := s.validate(); err != nil {
		return err
	}
	for k, code := range c.Via {
		if int(code) >= n {
			return fmt.Errorf("colstore: column %q: code %d of %q maps past its dictionary of %d entries", c.Name, k, s.Name, n)
		}
	}
	return nil
}

// dictLen returns how many codes a coded or bool column's rows may hold.
func (c *Column) dictLen() int {
	switch c.Kind {
	case Categorical:
		return len(c.Dict)
	case Bool:
		return 2
	default:
		return len(c.Values)
	}
}

// buildCodeOf (re)derives the inverse dictionary map.
func (c *Column) buildCodeOf() {
	if c.Kind != Categorical {
		return
	}
	c.CodeOf = make(map[string]uint32, len(c.Dict))
	for i, v := range c.Dict {
		c.CodeOf[v] = uint32(i)
	}
}

// NewFloatColumn builds a float64 column: byte codes into its sorted values
// when it holds at most MaxValues distinct ones and no NaN, the vector itself
// (not copied) otherwise.
func NewFloatColumn(name string, values []float64) *Column {
	return encodeNumeric(&Column{Name: name, Kind: Float64, Floats: values}, asSlice[uint64](asBytes(values), len(values)))
}

// NewIntColumn builds an int64 column, coded or not by NewFloatColumn's rule.
func NewIntColumn(name string, values []int64) *Column {
	return encodeNumeric(&Column{Name: name, Kind: Int64, Ints: values}, asSlice[uint64](asBytes(values), len(values)))
}

// NewBoolColumn wraps a bool vector (no copy).
func NewBoolColumn(name string, values []bool) *Column {
	return &Column{Name: name, Kind: Bool, Bools: values}
}

// NewCategoricalColumn dictionary-encodes the values: the sorted distinct
// strings become the dictionary, each row a code of the width its size calls
// for. The input slice is not retained.
func NewCategoricalColumn(name string, values []string) *Column {
	distinct := make(map[string]struct{})
	for _, v := range values {
		distinct[v] = struct{}{}
	}
	dict := make([]string, 0, len(distinct))
	for v := range distinct {
		dict = append(dict, v)
	}
	sort.Strings(dict)
	c := &Column{Name: name, Kind: Categorical, Width: codeWidth(len(dict)), Dict: dict}
	c.buildCodeOf()
	code := func(i int) uint32 { return c.CodeOf[values[i]] }
	switch c.Width {
	case 1:
		c.Codes8 = makeCodes[uint8](len(values), code)
	case 2:
		c.Codes16 = makeCodes[uint16](len(values), code)
	default:
		c.Codes32 = makeCodes[uint32](len(values), code)
	}
	return c
}

// Store is an immutable set of equal-length columns, optionally backed by a
// snapshot file. The zero value is not useful; build one with NewStore, Open
// or Decode.
type Store struct {
	cols   []*Column
	byName map[string]int
	rows   int

	// Snapshot provenance (zero for purely in-memory stores).
	path     string
	size     int64
	version  uint32
	mapped   []byte // the live mmap region; nil when heap-backed
	onceFree func() error
}

// NewStore builds an in-memory store over the columns, which must be
// equal-length with distinct names. Column payloads are referenced, not
// copied.
func NewStore(columns ...*Column) (*Store, error) {
	s := &Store{byName: make(map[string]int, len(columns))}
	for i, c := range columns {
		if c == nil {
			return nil, fmt.Errorf("colstore: nil column at position %d", i)
		}
		if err := c.validate(); err != nil {
			return nil, err
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("colstore: duplicate column %q", c.Name)
		}
		if c.Kind == Categorical && c.CodeOf == nil {
			c.buildCodeOf()
		}
		if i == 0 {
			s.rows = c.Len()
		} else if c.Len() != s.rows {
			return nil, fmt.Errorf("colstore: column %q has %d rows, expected %d", c.Name, c.Len(), s.rows)
		}
		s.byName[c.Name] = len(s.cols)
		s.cols = append(s.cols, c)
	}
	return s, nil
}

// Rows returns the row count.
func (s *Store) Rows() int { return s.rows }

// NumColumns returns the column count.
func (s *Store) NumColumns() int { return len(s.cols) }

// Columns returns the columns in declaration order. The returned slice is
// shared; treat it as read-only.
func (s *Store) Columns() []*Column { return s.cols }

// Column returns the named column, or nil when absent.
func (s *Store) Column(name string) *Column {
	i, ok := s.byName[name]
	if !ok {
		return nil
	}
	return s.cols[i]
}

// Schema returns the store's column schema in declaration order.
func (s *Store) Schema() Schema {
	out := make(Schema, len(s.cols))
	for i, c := range s.cols {
		out[i] = ColumnSchema{Name: c.Name, Kind: c.Kind}
	}
	return out
}

// Resident reports whether the store's vectors alias an mmap'd snapshot
// (true) or live on the Go heap (false).
func (s *Store) Resident() bool { return s.mapped != nil }

// Path returns the snapshot file the store was loaded from, or "" for
// in-memory stores.
func (s *Store) Path() string { return s.path }

// SizeBytes returns the snapshot file size in bytes (0 for in-memory stores).
func (s *Store) SizeBytes() int64 { return s.size }

// Version returns the snapshot format version the store was decoded from
// (0 for in-memory stores).
func (s *Store) Version() uint32 { return s.version }

// Close releases the snapshot mapping, if any. After Close every column slice
// that aliased the mapping is invalid — only call it when no Table or query
// still references the store. Close is idempotent and a no-op for heap
// stores.
func (s *Store) Close() error {
	if s.onceFree == nil {
		return nil
	}
	free := s.onceFree
	s.onceFree = nil
	s.mapped = nil
	return free()
}
