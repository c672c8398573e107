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
// typed row values become a snapshot file with at most a few row batches in
// memory. The producer (the caller's goroutine, parsing text or generating
// rows) fills a batch column by column and hands it to the builder's encoder
// goroutine, which takes the batches in row order and appends each column to
// its spill file (fixed-width little-endian values; categorical values as
// provisional first-seen dictionary codes) while each numeric column keeps a
// distinct-value tally of at most 257 entries. Producing rows and encoding
// them so overlap on two CPUs. Finish re-streams the spills through the shared
// snapshotWriter, recoding on the way — provisional codes onto the sorted
// dictionary at its code width, and the values of a numeric column the tally
// found narrow onto byte codes — so the resulting file is byte-identical to
// Store.WriteSnapshot over the same logical content, without the store ever
// existing in memory. The only per-dataset state held in RAM is each column's
// dictionary or tally.

const (
	// spillBufSize is how many bytes of a column's spill the encoder gathers
	// before it writes them, and the read size of Finish's re-stream.
	spillBufSize = 1 << 16
	// A row batch holds batchRows rows, fewer when the schema is so wide that
	// it would pass batchCells cells.
	batchRows  = 4096
	batchCells = 1 << 15
	// pipelineBatches is how many batches a builder owns: one the producer
	// fills, one queued, one the encoder spills.
	pipelineBatches = 3
)

// goTypes names the Go type of each kind's values, for the errors of a value
// of the wrong type.
var goTypes = [numKinds]string{Float64: "float64", Int64: "int64", Categorical: "string", Bool: "bool"}

// RowBuilder accumulates rows column-wise into temp spill files and writes a
// snapshot on Finish. A row goes in through the typed setters and EndRow, or
// as one call to Append (boxed typed values) or AppendStrings (text), which
// fill the same batches. A builder is used from one goroutine and runs one
// encoder goroutine of its own, which Finish and Abort stop: every builder
// ends in one of them, and one that returned an error from any method must be
// Aborted, not Finished.
type RowBuilder struct {
	dest   string
	schema Schema
	rows   uint64 // rows ended so far
	err    error  // the first error a method returned
	// The row being filled: its batch, how many of its cells were set, and
	// the first bad one.
	cur    *rowBatch
	filled int
	rowErr error
	batch  int // rows per batch
	made   int // batches allocated, at most pipelineBatches
	// The pipeline: full carries filled batches to the encoder in row order
	// and free brings them back; done is closed when the encoder has exited,
	// and encErr is then its error. cols are the encoder's until done.
	full    chan *rowBatch
	free    chan *rowBatch
	done    chan struct{}
	stopped bool
	encErr  error
	cols    []*colBuilder
}

// rowBatch holds up to RowBuilder.batch rows, column by column.
type rowBatch struct {
	n    int // rows filled
	cols []batchColumn
}

// batchColumn is one column of a batch, in the slice its kind uses.
type batchColumn struct {
	bits  []uint64 // Float64, Int64: each row's bit pattern
	bools []byte   // Bool: 0 or 1
	strs  []string // Categorical
}

// colBuilder is one column's spill state, owned by the encoder.
type colBuilder struct {
	schema ColumnSchema
	f      *os.File
	buf    []byte // spill bytes not yet written, at most spillBufSize
	// Categorical dictionary, in first-seen (provisional) code order. Finish
	// sorts it and remaps the spilled codes. last and lastCode are the
	// previous row's value and code.
	dict     []string
	codeOf   map[string]uint32
	last     string
	lastCode uint32
	tally    *valueTally // numeric columns: the distinct values seen
}

// NewRowBuilder opens a builder that will write its snapshot to dest and
// starts its encoder. The schema fixes the column order and kinds. Spill
// files live in the system temp directory and are always removed, whatever
// happens.
func NewRowBuilder(schema Schema, dest string) (*RowBuilder, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if len(schema) == 0 {
		return nil, fmt.Errorf("colstore: ingest needs at least one column")
	}
	b := &RowBuilder{dest: dest, schema: schema, batch: max(1, min(batchRows, batchCells/len(schema)))}
	for _, cs := range schema {
		f, err := os.CreateTemp("", ".aware-spill-*")
		if err != nil {
			b.removeSpills()
			return nil, fmt.Errorf("colstore: creating spill file: %w", err)
		}
		cb := &colBuilder{schema: cs, f: f, buf: make([]byte, 0, spillBufSize)}
		switch cs.Kind {
		case Categorical:
			cb.codeOf = make(map[string]uint32)
		case Float64, Int64:
			cb.tally = &valueTally{kind: cs.Kind}
		}
		b.cols = append(b.cols, cb)
	}
	b.cur = b.newBatch()
	// Both channels hold every batch the builder can own, so the encoder
	// never blocks giving one back and the producer blocks only when it has
	// filled them all.
	b.full = make(chan *rowBatch, pipelineBatches)
	b.free = make(chan *rowBatch, pipelineBatches)
	b.done = make(chan struct{})
	go b.encode()
	return b, nil
}

// Rows returns the number of rows appended so far.
func (b *RowBuilder) Rows() int { return int(b.rows) }

// SetFloat64 sets column col of the current row. The four setters and EndRow
// are the typed row path: set each column of a row once, in any order, then
// end it. A setter that does not match the column's kind, or a col out of
// range, fails the row when it ends.
func (b *RowBuilder) SetFloat64(col int, v float64) {
	if b.cell(col, Float64) {
		b.cur.cols[col].bits[b.cur.n] = math.Float64bits(v)
	}
}

// SetInt64 sets column col of the current row (see SetFloat64).
func (b *RowBuilder) SetInt64(col int, v int64) {
	if b.cell(col, Int64) {
		b.cur.cols[col].bits[b.cur.n] = uint64(v)
	}
}

// SetBool sets column col of the current row (see SetFloat64).
func (b *RowBuilder) SetBool(col int, v bool) {
	if b.cell(col, Bool) {
		var by byte
		if v {
			by = 1
		}
		b.cur.cols[col].bools[b.cur.n] = by
	}
}

// SetString sets categorical column col of the current row (see SetFloat64).
func (b *RowBuilder) SetString(col int, v string) {
	if b.cell(col, Categorical) {
		b.cur.cols[col].strs[b.cur.n] = v
	}
}

// cell counts one cell of the current row and reports whether column col
// takes a value of kind k; if not, the row fails.
func (b *RowBuilder) cell(col int, k Kind) bool {
	b.filled++
	if uint(col) < uint(len(b.schema)) && b.schema[col].Kind == k {
		return true
	}
	b.badCell(col, goTypes[k])
	return false
}

// badCell keeps the error of the current row's first bad cell.
func (b *RowBuilder) badCell(col int, got string) {
	switch {
	case b.rowErr != nil:
	case uint(col) >= uint(len(b.schema)):
		b.rowErr = fmt.Errorf("colstore: row %d: column %d out of range, schema has %d", b.rows, col, len(b.schema))
	default:
		cs := b.schema[col]
		b.rowErr = fmt.Errorf("colstore: row %d column %q: want %s, got %s", b.rows, cs.Name, goTypes[cs.Kind], got)
	}
}

// EndRow ends the current row, which must have had each column set once.
func (b *RowBuilder) EndRow() error {
	if b.rowErr == nil && b.filled != len(b.schema) {
		b.rowErr = fmt.Errorf("colstore: row has %d values, schema has %d", b.filled, len(b.schema))
	}
	switch {
	case b.rowErr != nil:
		return b.fail(b.rowErr)
	case b.err != nil:
		return b.fail(b.err)
	}
	b.filled = 0
	b.rows++
	if b.cur.n++; b.cur.n == b.batch {
		return b.ship()
	}
	return nil
}

// Append adds one row of typed values in schema order: float64 for Float64
// columns, int64 for Int64, bool for Bool, string for Categorical. It is the
// typed row path for values that arrive boxed (decoded JSONL, callers of the
// facade); a producer that has the values unboxed calls the setters.
func (b *RowBuilder) Append(vals ...any) error {
	if len(vals) != len(b.schema) {
		return b.fail(fmt.Errorf("colstore: row has %d values, schema has %d", len(vals), len(b.schema)))
	}
	for i, v := range vals {
		switch v := v.(type) {
		case float64:
			b.SetFloat64(i, v)
		case int64:
			b.SetInt64(i, v)
		case bool:
			b.SetBool(i, v)
		case string:
			b.SetString(i, v)
		default:
			b.filled++
			b.badCell(i, fmt.Sprintf("%T", v))
		}
	}
	return b.EndRow()
}

// AppendStrings adds one row of text fields in schema order, parsing each
// according to its column kind with the strconv parsers schema inference
// tests the values against (ParseBool, ParseInt base 10, ParseFloat).
func (b *RowBuilder) AppendStrings(fields []string) error {
	if len(fields) != len(b.schema) {
		return b.fail(fmt.Errorf("colstore: row has %d fields, schema has %d", len(fields), len(b.schema)))
	}
	for i, field := range fields {
		var err error
		switch b.schema[i].Kind {
		case Float64:
			var v float64
			if v, err = strconv.ParseFloat(field, 64); err == nil {
				b.SetFloat64(i, v)
			}
		case Int64:
			var v int64
			if v, err = strconv.ParseInt(field, 10, 64); err == nil {
				b.SetInt64(i, v)
			}
		case Bool:
			var v bool
			if v, err = strconv.ParseBool(field); err == nil {
				b.SetBool(i, v)
			}
		default:
			b.SetString(i, field)
		}
		if err != nil {
			return b.fail(fmt.Errorf("colstore: row %d column %q: %w", b.rows, b.schema[i].Name, err))
		}
	}
	return b.EndRow()
}

// fail marks the builder broken, drops the row being filled and returns err.
func (b *RowBuilder) fail(err error) error {
	if b.err == nil {
		b.err = err
	}
	b.filled, b.rowErr = 0, nil
	return err
}

// newBatch allocates one of the builder's batches.
func (b *RowBuilder) newBatch() *rowBatch {
	b.made++
	bt := &rowBatch{cols: make([]batchColumn, len(b.schema))}
	for i, cs := range b.schema {
		switch cs.Kind {
		case Float64, Int64:
			bt.cols[i].bits = make([]uint64, b.batch)
		case Bool:
			bt.cols[i].bools = make([]byte, b.batch)
		default:
			bt.cols[i].strs = make([]string, b.batch)
		}
	}
	return bt
}

// ship hands the full current batch to the encoder and takes an empty one: a
// batch the encoder is done with, a new one while fewer than pipelineBatches
// exist, or else the next the encoder frees.
func (b *RowBuilder) ship() error {
	defer func() { b.cur.n = 0 }()
	if !b.send() {
		return b.fail(b.encErr)
	}
	select {
	case b.cur = <-b.free:
		return nil
	default:
	}
	if b.made < pipelineBatches {
		b.cur = b.newBatch()
		return nil
	}
	select {
	case b.cur = <-b.free:
		return nil
	case <-b.done:
		return b.fail(b.encErr)
	}
}

// send queues the current batch for the encoder, or reports false once the
// encoder has stopped on an error.
func (b *RowBuilder) send() bool {
	select {
	case b.full <- b.cur:
		return true
	case <-b.done:
		return false
	}
}

// encode is the encoder goroutine. It spills each batch's columns in row
// order and gives the batch back, and once the producer closes full it
// writes out what the columns still hold. It exits on the first error.
func (b *RowBuilder) encode() {
	defer close(b.done)
	for bt := range b.full {
		for i, cb := range b.cols {
			if err := cb.encode(&bt.cols[i], bt.n); err != nil {
				b.encErr = err
				return
			}
		}
		b.free <- bt
	}
	for _, cb := range b.cols {
		if err := cb.writeOut(); err != nil {
			b.encErr = err
			return
		}
	}
}

// encode appends the first n rows of a batch column to the spill: the bit
// patterns of a numeric column, tallied; the bytes of a bool one; the
// provisional codes of a categorical one, where a value equal to the previous
// row's reuses its code without a map lookup.
func (cb *colBuilder) encode(c *batchColumn, n int) error {
	if len(cb.buf)+n*spillRecord(cb.schema.Kind) > cap(cb.buf) {
		if err := cb.writeOut(); err != nil {
			return err
		}
	}
	switch cb.schema.Kind {
	case Float64, Int64:
		bits := c.bits[:n]
		for _, v := range bits {
			cb.tally.add(v)
		}
		if hostLittleEndian {
			cb.buf = append(cb.buf, asBytes(bits)...)
			break
		}
		for _, v := range bits {
			cb.buf = binary.LittleEndian.AppendUint64(cb.buf, v)
		}
	case Bool:
		cb.buf = append(cb.buf, c.bools[:n]...)
	case Categorical:
		for _, v := range c.strs[:n] {
			if v != cb.last || len(cb.dict) == 0 {
				code, ok := cb.codeOf[v]
				if !ok {
					if len(cb.dict) >= 1<<32-1 {
						return fmt.Errorf("colstore: column %q: dictionary overflows the 32-bit code space", cb.schema.Name)
					}
					code = uint32(len(cb.dict))
					cb.dict = append(cb.dict, v)
					cb.codeOf[v] = code
				}
				cb.last, cb.lastCode = v, code
			}
			cb.buf = binary.LittleEndian.AppendUint32(cb.buf, cb.lastCode)
		}
	}
	return nil
}

// writeOut writes the gathered spill bytes to the spill file.
func (cb *colBuilder) writeOut() error {
	_, err := cb.f.Write(cb.buf)
	cb.buf = cb.buf[:0]
	if err != nil {
		return fmt.Errorf("colstore: spilling column %q: %w", cb.schema.Name, err)
	}
	return nil
}

// spillRecord is the bytes one row takes in a spill of kind k.
func spillRecord(k Kind) int {
	switch k {
	case Categorical:
		return 4
	case Bool:
		return 1
	default:
		return 8
	}
}

// stop closes the pipeline and waits for the encoder to exit. Idempotent.
func (b *RowBuilder) stop() {
	if !b.stopped {
		b.stopped = true
		close(b.full)
		<-b.done
	}
}

// flush hands the encoder the rows not yet shipped, stops it and returns its
// error: after it every spill is complete and the columns are the caller's.
func (b *RowBuilder) flush() error {
	if !b.stopped && b.cur.n > 0 {
		b.send() // an encoder that stopped early left its error in encErr
	}
	b.stop()
	return b.encErr
}

// Abort stops the encoder and releases every spill file. Safe to call
// multiple times and after Finish.
func (b *RowBuilder) Abort() {
	b.stop()
	b.removeSpills()
}

// removeSpills closes and deletes the spill files.
func (b *RowBuilder) removeSpills() {
	for _, cb := range b.cols {
		if cb.f != nil {
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
	if b.err != nil {
		return fmt.Errorf("colstore: finishing a builder that already failed")
	}
	if err := b.flush(); err != nil {
		return err
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
// constructors would store the same rows. The spill must hold exactly one
// record per row.
func (b *RowBuilder) finishColumn(w *snapshotWriter, cb *colBuilder) error {
	kind, width, rec := cb.schema.Kind, 0, spillRecord(cb.schema.Kind)
	fi, err := cb.f.Stat()
	if err != nil {
		return err
	}
	if want := int64(b.rows) * int64(rec); fi.Size() != want {
		return fmt.Errorf("spill holds %d bytes, want %d (%d rows of %d)", fi.Size(), want, b.rows, rec)
	}
	if _, err := cb.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	var dict []string
	var values []uint64
	var recode func(rec []byte) uint32 // nil: the spill is already the value segment
	switch kind {
	case Categorical:
		var remap []uint32
		dict, remap = cb.sortedDictAndRemap()
		width = codeWidth(len(dict))
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
	if err := copySpill(w, cb.f, rec, width, recode); err != nil {
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
// dest through a RowBuilder. The schema types the columns by name and must
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
// full pass over the file — exact inference without holding the rows costs
// two sequential reads). Returns the row count and the schema actually used.
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
// sets) into a snapshot at dest through a RowBuilder. Column order is sorted
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
