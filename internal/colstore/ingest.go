package colstore

import (
	"bufio"
	"encoding/binary"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
)

// This file is the streaming ingestion path: row-oriented text (CSV, JSONL) or
// typed row values become a snapshot file in O(1) row memory. Rows are
// appended to per-column spill files (fixed-width little-endian values;
// categorical values as provisional first-seen dictionary codes) while each
// numeric column keeps a distinct-value tally of at most 257 entries. Finish
// re-streams the spills through the shared snapshotWriter, recoding on the
// way — provisional codes onto the sorted dictionary at its code width, and
// the values of a numeric column the tally found narrow onto byte codes — so
// the resulting file is byte-identical to Store.WriteSnapshot over the same
// logical content, without the store ever existing in memory. The only
// per-dataset state held in RAM is each column's dictionary or tally.

// spillBufSize is the buffered-writer size of each column spill file.
const spillBufSize = 1 << 16

// RowBuilder accumulates rows column-wise into temp spill files and writes a
// snapshot on Finish. Builders are single-goroutine; a builder that returned
// an error from any method must be Aborted, not Finished.
type RowBuilder struct {
	dest   string
	rows   uint64
	cols   []*colBuilder
	failed bool
}

// colBuilder is one column's spill state.
type colBuilder struct {
	schema ColumnSchema
	f      *os.File
	bw     *bufio.Writer
	// Categorical dictionary, in first-seen (provisional) code order. Finish
	// sorts it and remaps the spilled codes.
	dict    []string
	codeOf  map[string]uint32
	tally   *valueTally // numeric columns: the distinct values seen
	scratch [8]byte
}

// NewRowBuilder opens a builder that will write its snapshot to dest. The
// schema fixes the column order and kinds. Spill files live in the system
// temp directory and are always removed, whatever happens.
func NewRowBuilder(schema Schema, dest string) (*RowBuilder, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if len(schema) == 0 {
		return nil, fmt.Errorf("colstore: ingest needs at least one column")
	}
	b := &RowBuilder{dest: dest}
	for _, cs := range schema {
		f, err := os.CreateTemp("", ".aware-spill-*")
		if err != nil {
			b.Abort()
			return nil, fmt.Errorf("colstore: creating spill file: %w", err)
		}
		cb := &colBuilder{schema: cs, f: f, bw: bufio.NewWriterSize(f, spillBufSize)}
		switch cs.Kind {
		case Categorical:
			cb.codeOf = make(map[string]uint32)
		case Float64, Int64:
			cb.tally = &valueTally{kind: cs.Kind}
		}
		b.cols = append(b.cols, cb)
	}
	return b, nil
}

// Rows returns the number of rows appended so far.
func (b *RowBuilder) Rows() int { return int(b.rows) }

// Append adds one row of typed values in schema order: float64 for Float64
// columns, int64 for Int64, bool for Bool, string for Categorical. This is
// the path typed producers (the census generator) take — no string
// round-trip per numeric value.
func (b *RowBuilder) Append(vals ...any) error {
	if len(vals) != len(b.cols) {
		return b.fail(fmt.Errorf("colstore: row has %d values, schema has %d", len(vals), len(b.cols)))
	}
	for i, cb := range b.cols {
		var err error
		switch cb.schema.Kind {
		case Float64:
			v, ok := vals[i].(float64)
			if !ok {
				err = fmt.Errorf("colstore: row %d column %q: want float64, got %T", b.rows, cb.schema.Name, vals[i])
			} else {
				err = cb.putU64(math.Float64bits(v))
			}
		case Int64:
			v, ok := vals[i].(int64)
			if !ok {
				err = fmt.Errorf("colstore: row %d column %q: want int64, got %T", b.rows, cb.schema.Name, vals[i])
			} else {
				err = cb.putU64(uint64(v))
			}
		case Bool:
			v, ok := vals[i].(bool)
			if !ok {
				err = fmt.Errorf("colstore: row %d column %q: want bool, got %T", b.rows, cb.schema.Name, vals[i])
			} else {
				err = cb.putBool(v)
			}
		case Categorical:
			v, ok := vals[i].(string)
			if !ok {
				err = fmt.Errorf("colstore: row %d column %q: want string, got %T", b.rows, cb.schema.Name, vals[i])
			} else {
				err = cb.putCategorical(v)
			}
		}
		if err != nil {
			return b.fail(err)
		}
	}
	b.rows++
	return nil
}

// AppendStrings adds one row of text fields in schema order, parsing each
// according to its column kind with the strconv parsers schema inference
// tests the values against (ParseBool, ParseInt base 10, ParseFloat).
func (b *RowBuilder) AppendStrings(fields []string) error {
	if len(fields) != len(b.cols) {
		return b.fail(fmt.Errorf("colstore: row has %d fields, schema has %d", len(fields), len(b.cols)))
	}
	for i, cb := range b.cols {
		if err := cb.putParsed(fields[i], b.rows); err != nil {
			return b.fail(err)
		}
	}
	b.rows++
	return nil
}

// fail marks the builder broken and returns err.
func (b *RowBuilder) fail(err error) error {
	b.failed = true
	return err
}

// putU64 spills one numeric value's bit pattern and tallies it.
func (cb *colBuilder) putU64(v uint64) error {
	cb.tally.add(v)
	binary.LittleEndian.PutUint64(cb.scratch[:8], v)
	_, err := cb.bw.Write(cb.scratch[:8])
	return err
}

func (cb *colBuilder) putU32(v uint32) error {
	binary.LittleEndian.PutUint32(cb.scratch[:4], v)
	_, err := cb.bw.Write(cb.scratch[:4])
	return err
}

func (cb *colBuilder) putBool(v bool) error {
	var by byte
	if v {
		by = 1
	}
	return cb.bw.WriteByte(by)
}

func (cb *colBuilder) putCategorical(v string) error {
	code, ok := cb.codeOf[v]
	if !ok {
		if len(cb.dict) >= 1<<32-1 {
			return fmt.Errorf("colstore: column %q: dictionary overflows the 32-bit code space", cb.schema.Name)
		}
		code = uint32(len(cb.dict))
		cb.dict = append(cb.dict, v)
		cb.codeOf[v] = code
	}
	return cb.putU32(code)
}

// putParsed parses one text field by the column's kind and spills it.
func (cb *colBuilder) putParsed(field string, row uint64) error {
	switch cb.schema.Kind {
	case Float64:
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return fmt.Errorf("colstore: row %d column %q: %w", row, cb.schema.Name, err)
		}
		return cb.putU64(math.Float64bits(v))
	case Int64:
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return fmt.Errorf("colstore: row %d column %q: %w", row, cb.schema.Name, err)
		}
		return cb.putU64(uint64(v))
	case Bool:
		v, err := strconv.ParseBool(field)
		if err != nil {
			return fmt.Errorf("colstore: row %d column %q: %w", row, cb.schema.Name, err)
		}
		return cb.putBool(v)
	default:
		return cb.putCategorical(field)
	}
}

// Abort releases every spill file. Safe to call multiple times and after
// Finish.
func (b *RowBuilder) Abort() {
	for _, cb := range b.cols {
		if cb != nil && cb.f != nil {
			name := cb.f.Name()
			cb.f.Close()
			os.Remove(name)
			cb.f = nil
		}
	}
}

// Finish assembles the snapshot at dest from the spilled columns: one
// sequential re-read per column, recoded in flight as the constructors would
// store the same rows. The spill files are removed in every outcome.
func (b *RowBuilder) Finish() error {
	defer b.Abort()
	if b.failed {
		return fmt.Errorf("colstore: finishing a builder that already failed")
	}
	w, err := newSnapshotWriter(b.dest)
	if err != nil {
		return err
	}
	for _, cb := range b.cols {
		if err := b.finishColumn(w, cb); err != nil {
			w.abort()
			return fmt.Errorf("colstore: ingesting column %q: %w", cb.schema.Name, err)
		}
	}
	if err := w.finish(b.rows, uint32(len(b.cols))); err != nil {
		return fmt.Errorf("colstore: writing snapshot %s: %w", b.dest, err)
	}
	return nil
}

// sortedDictAndRemap sorts the first-seen dictionary and returns it with the
// provisional-code → sorted-rank remap table.
func (cb *colBuilder) sortedDictAndRemap() ([]string, []uint32) {
	sorted := append([]string(nil), cb.dict...)
	sort.Strings(sorted)
	rank := make(map[string]uint32, len(sorted))
	for i, v := range sorted {
		rank[v] = uint32(i)
	}
	remap := make([]uint32, len(cb.dict))
	for prov, v := range cb.dict {
		remap[prov] = rank[v]
	}
	return sorted, remap
}

// finishColumn streams one spilled column into the snapshot, encoded as the
// constructors would store the same rows.
func (b *RowBuilder) finishColumn(w *snapshotWriter, cb *colBuilder) error {
	if err := cb.bw.Flush(); err != nil {
		return err
	}
	if _, err := cb.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	kind, width, spilled := cb.schema.Kind, 0, 8 // spilled: bytes per record of a recoded spill
	var dict []string
	var values []uint64
	var recode func(rec []byte) uint32 // nil: the spill is already the value segment
	switch kind {
	case Categorical:
		var remap []uint32
		dict, remap = cb.sortedDictAndRemap()
		width, spilled = codeWidth(len(dict)), 4
		recode = func(rec []byte) uint32 { return remap[binary.LittleEndian.Uint32(rec)] }
	case Float64, Int64:
		var final [MaxValues]uint8
		if values, final = cb.tally.seal(); values != nil {
			width = 1
			recode = func(rec []byte) uint32 {
				code, _ := cb.tally.add(binary.LittleEndian.Uint64(rec))
				return uint32(final[code])
			}
		}
	}
	if err := w.writeColumnStart(kind, width, cb.schema.Name, dict, values, b.rows); err != nil {
		return err
	}
	if err := copySpill(w, cb.f, spilled, width, recode); err != nil {
		return err
	}
	return w.pad()
}

// copySpill streams the spill file into the snapshot writer. Without recode
// the spill is already in on-disk form and copies through in chunks;
// otherwise each spilled record of in bytes becomes the width-byte code
// recode returns for it.
func copySpill(w *snapshotWriter, f *os.File, in, width int, recode func(rec []byte) uint32) error {
	br := bufio.NewReaderSize(f, spillBufSize)
	buf := make([]byte, spillBufSize)
	if recode == nil {
		_, err := io.CopyBuffer(writerFunc(w.write), br, buf)
		return err
	}
	out := make([]byte, 0, spillBufSize)
	for {
		n, err := io.ReadFull(br, buf[:spillBufSize/in*in])
		for off := 0; off < n; off += in {
			out = binary.LittleEndian.AppendUint32(out, recode(buf[off:off+in]))[:len(out)+width]
		}
		if werr := w.write(out); werr != nil {
			return werr
		}
		out = out[:0]
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// writerFunc adapts a write method to io.Writer.
type writerFunc func([]byte) error

func (f writerFunc) Write(p []byte) (int, error) { return len(p), f(p) }

// --- CSV ---

// IngestCSV streams a CSV document (with a header row) into a snapshot at
// dest in O(1) row memory. The schema types the columns by name and must
// cover the header exactly; the snapshot's column order is the CSV's header
// order. Returns the ingested row count.
func IngestCSV(r io.Reader, schema Schema, dest string) (int, error) {
	if err := schema.Validate(); err != nil {
		return 0, err
	}
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return 0, fmt.Errorf("colstore: reading CSV header: %w", err)
	}
	ordered, err := reorderSchema(schema, header)
	if err != nil {
		return 0, err
	}
	b, err := NewRowBuilder(ordered, dest)
	if err != nil {
		return 0, err
	}
	defer b.Abort()
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("colstore: reading CSV row %d: %w", b.rows, err)
		}
		if err := b.AppendStrings(rec); err != nil {
			return 0, err
		}
	}
	return b.Rows(), b.Finish()
}

// IngestCSVFile ingests a CSV file. A nil schema infers one first (a separate
// full pass over the file — exact inference at O(1) row memory costs two
// sequential reads). Returns the row count and the schema actually used.
func IngestCSVFile(path string, schema Schema, dest string) (int, Schema, error) {
	if schema == nil {
		f, err := os.Open(path)
		if err != nil {
			return 0, nil, err
		}
		schema, err = InferCSVSchema(bufio.NewReaderSize(f, spillBufSize))
		f.Close()
		if err != nil {
			return 0, nil, err
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	rows, err := IngestCSV(bufio.NewReaderSize(f, spillBufSize), schema, dest)
	return rows, schema, err
}

// reorderSchema returns schema reordered to match the CSV header, requiring
// an exact name-set match.
func reorderSchema(schema Schema, header []string) (Schema, error) {
	byName := make(map[string]ColumnSchema, len(schema))
	for _, cs := range schema {
		byName[cs.Name] = cs
	}
	if len(header) != len(schema) {
		return nil, fmt.Errorf("colstore: CSV header has %d columns, schema has %d", len(header), len(schema))
	}
	out := make(Schema, len(header))
	seen := make(map[string]bool, len(header))
	for i, name := range header {
		cs, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("colstore: CSV column %q is not in the schema", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("colstore: CSV header names column %q twice", name)
		}
		seen[name] = true
		out[i] = cs
	}
	return out, nil
}

// --- JSONL ---

// IngestJSONL streams a JSONL document (one object per line, identical key
// sets) into a snapshot at dest in O(1) row memory. Column order is sorted
// key order, matching InferJSONLSchema; the schema must cover the keys
// exactly. Returns the ingested row count.
func IngestJSONL(r io.Reader, schema Schema, dest string) (int, error) {
	if err := schema.Validate(); err != nil {
		return 0, err
	}
	byName := make(map[string]ColumnSchema, len(schema))
	names := make([]string, 0, len(schema))
	for _, cs := range schema {
		byName[cs.Name] = cs
		names = append(names, cs.Name)
	}
	sort.Strings(names)
	ordered := make(Schema, len(names))
	for i, n := range names {
		ordered[i] = byName[n]
	}
	b, err := NewRowBuilder(ordered, dest)
	if err != nil {
		return 0, err
	}
	defer b.Abort()
	sc := newJSONLScanner(r)
	vals := make([]any, len(names))
	for sc.next() {
		if err := sc.checkKeys(names); err != nil {
			return 0, b.fail(err)
		}
		for i, k := range names {
			v, err := jsonValue(ordered[i], sc.obj[k], sc.line)
			if err != nil {
				return 0, b.fail(err)
			}
			vals[i] = v
		}
		if err := b.Append(vals...); err != nil {
			return 0, err
		}
	}
	if err := sc.err(); err != nil {
		return 0, b.fail(err)
	}
	return b.Rows(), b.Finish()
}

// IngestJSONLFile ingests a JSONL file; a nil schema infers one first (two
// sequential passes). Returns the row count and the schema used.
func IngestJSONLFile(path string, schema Schema, dest string) (int, Schema, error) {
	if schema == nil {
		f, err := os.Open(path)
		if err != nil {
			return 0, nil, err
		}
		schema, err = InferJSONLSchema(bufio.NewReaderSize(f, spillBufSize))
		f.Close()
		if err != nil {
			return 0, nil, err
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	rows, err := IngestJSONL(bufio.NewReaderSize(f, spillBufSize), schema, dest)
	return rows, schema, err
}

// jsonValue converts one decoded JSONL value to the typed representation the
// column expects.
func jsonValue(cs ColumnSchema, v any, line int) (any, error) {
	switch cs.Kind {
	case Float64:
		num, ok := v.(json.Number)
		if !ok {
			return nil, fmt.Errorf("colstore: JSONL line %d: column %q: want number, got %T", line, cs.Name, v)
		}
		f, err := num.Float64()
		if err != nil {
			return nil, fmt.Errorf("colstore: JSONL line %d: column %q: %w", line, cs.Name, err)
		}
		return f, nil
	case Int64:
		num, ok := v.(json.Number)
		if !ok {
			return nil, fmt.Errorf("colstore: JSONL line %d: column %q: want number, got %T", line, cs.Name, v)
		}
		i, err := num.Int64()
		if err != nil {
			return nil, fmt.Errorf("colstore: JSONL line %d: column %q: %w", line, cs.Name, err)
		}
		return i, nil
	case Bool:
		bv, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("colstore: JSONL line %d: column %q: want bool, got %T", line, cs.Name, v)
		}
		return bv, nil
	default:
		switch sv := v.(type) {
		case string:
			return sv, nil
		case bool:
			return strconv.FormatBool(sv), nil
		case json.Number:
			return sv.String(), nil
		default:
			return nil, fmt.Errorf("colstore: JSONL line %d: column %q: unsupported value %v", line, cs.Name, v)
		}
	}
}
