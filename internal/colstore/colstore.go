// Package colstore is the columnar storage engine under the dataset layer: an
// explicit structure-of-arrays column store plus a versioned, CRC-guarded,
// mmap-able binary snapshot format.
//
// A Store owns the physical representation every query in this repository
// runs over — dictionary-encoded categorical code vectors, dense float64 /
// int64 / bool value vectors, and the per-column metadata (name, kind,
// dictionary) that internal/dataset previously assembled ad hoc inside
// Table. dataset.Table is now a thin query facade over a Store: the kernels
// keep scanning the exact same slices, but the slices are owned here, which
// is what makes them persistable and shareable.
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
)

// Kind enumerates the physical column representations. The values are part of
// the snapshot wire format — never renumber them.
type Kind uint8

const (
	// Float64 columns hold 8-byte IEEE-754 values.
	Float64 Kind = 0
	// Int64 columns hold 8-byte signed integers.
	Int64 Kind = 1
	// Categorical columns hold 4-byte dictionary codes plus a sorted string
	// dictionary.
	Categorical Kind = 2
	// Bool columns hold 1-byte values (0 or 1).
	Bool Kind = 3

	numKinds = 4
)

// String implements fmt.Stringer; the names double as the schema-file and
// /datasets wire spelling.
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

// MarshalText implements encoding.TextMarshaler (schema files, /datasets).
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

// Column is one named, typed column vector. Exactly one value slice is
// populated, matching Kind; Categorical columns also carry their sorted
// dictionary and the inverse value→code map. All fields are read-only after
// construction (they may alias a read-only file mapping).
type Column struct {
	Name string
	Kind Kind

	Floats []float64 // Float64
	Ints   []int64   // Int64
	Codes  []uint32  // Categorical: per-row index into Dict
	Bools  []bool    // Bool

	Dict   []string          // Categorical: sorted distinct values
	CodeOf map[string]uint32 // Categorical: value -> code
}

// Len returns the column's row count.
func (c *Column) Len() int {
	switch c.Kind {
	case Float64:
		return len(c.Floats)
	case Int64:
		return len(c.Ints)
	case Categorical:
		return len(c.Codes)
	case Bool:
		return len(c.Bools)
	default:
		return 0
	}
}

// validate checks the column's structural invariants: a populated payload
// matching Kind, and for Categorical columns a sorted, duplicate-free
// dictionary with every code in range. It is the shared gatekeeper of
// NewStore and the snapshot loader, so a corrupt or hand-rolled snapshot can
// never hand the kernels an out-of-range code.
func (c *Column) validate() error {
	if c.Name == "" {
		return errors.New("colstore: column with empty name")
	}
	switch c.Kind {
	case Float64, Int64, Bool:
		if c.Dict != nil || c.Codes != nil {
			return fmt.Errorf("colstore: column %q: %s column carries a dictionary", c.Name, c.Kind)
		}
	case Categorical:
		for i := 1; i < len(c.Dict); i++ {
			if c.Dict[i-1] >= c.Dict[i] {
				return fmt.Errorf("colstore: column %q: dictionary not sorted and unique at entry %d", c.Name, i)
			}
		}
		n := uint32(len(c.Dict))
		for i, code := range c.Codes {
			if code >= n {
				return fmt.Errorf("colstore: column %q: row %d has code %d, dictionary has %d entries", c.Name, i, code, n)
			}
		}
	default:
		return fmt.Errorf("colstore: column %q: unknown kind %d", c.Name, int(c.Kind))
	}
	return nil
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

// NewFloatColumn wraps a float64 vector (no copy).
func NewFloatColumn(name string, values []float64) *Column {
	return &Column{Name: name, Kind: Float64, Floats: values}
}

// NewIntColumn wraps an int64 vector (no copy).
func NewIntColumn(name string, values []int64) *Column {
	return &Column{Name: name, Kind: Int64, Ints: values}
}

// NewBoolColumn wraps a bool vector (no copy).
func NewBoolColumn(name string, values []bool) *Column {
	return &Column{Name: name, Kind: Bool, Bools: values}
}

// NewCategoricalColumn dictionary-encodes the values: the sorted distinct
// strings become the dictionary, each row a 4-byte code. The input slice is
// not retained.
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
	c := &Column{Name: name, Kind: Categorical, Dict: dict}
	c.buildCodeOf()
	c.Codes = make([]uint32, len(values))
	for i, v := range values {
		c.Codes[i] = c.CodeOf[v]
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
