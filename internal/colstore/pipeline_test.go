package colstore

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// testTable is a table held row by row, in the values the typed path takes.
type testTable struct {
	schema Schema
	rows   [][]any
}

// genTable draws rows rows of a table whose column i has kind kinds[i] and
// value mode modes[i] (see genValue); wideAt is the row at which an "edge"
// numeric column takes its 257th distinct value.
func genTable(rng *rand.Rand, kinds []Kind, modes []int, rows, wideAt int) testTable {
	tt := testTable{schema: make(Schema, len(kinds))}
	for i, k := range kinds {
		tt.schema[i] = ColumnSchema{Name: fmt.Sprintf("c%d", i), Kind: k}
	}
	for r := 0; r < rows; r++ {
		row := make([]any, len(kinds))
		for i, k := range kinds {
			row[i] = genValue(rng, k, modes[i]%4, r, wideAt)
		}
		tt.rows = append(tt.rows, row)
	}
	return tt
}

// genValue draws row r's value of a column of kind k. Mode 0 draws from a
// pool of values that tell encodings apart: −0 and +0, int64 2^53 and
// 2^53+1, the empty string. Mode 1 is the edge column: 256 distinct values
// in turn, and the 257th at row wideAt. Mode 2 draws from a range wide
// enough to pass 256 distinct values, and mode 3 is the pool with a NaN now
// and then.
func genValue(rng *rand.Rand, k Kind, mode, r, wideAt int) any {
	distinct := r % 256
	if r >= wideAt {
		distinct = r % 257
	}
	switch k {
	case Float64:
		pool := []float64{math.Copysign(0, -1), 0, 1.5, -2, 1 << 53, math.Inf(1), math.SmallestNonzeroFloat64}
		switch mode {
		case 1:
			if distinct == 0 {
				return math.Copysign(0, -1)
			}
			return float64(distinct) - 128
		case 2:
			return math.Round(rng.NormFloat64()*200) / 4
		case 3:
			if rng.Intn(50) == 0 {
				return math.NaN()
			}
		}
		return pool[rng.Intn(len(pool))]
	case Int64:
		pool := []int64{0, -1, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64}
		switch mode {
		case 1:
			return int64(1<<53 + distinct - 128)
		case 2:
			return rng.Int63n(600) - 300
		}
		return pool[rng.Intn(len(pool))]
	case Bool:
		return rng.Intn(2) == 1
	default:
		pool := []string{"", "a", "b", "zeta", "é", " x,y "}
		switch mode {
		case 1:
			return fmt.Sprintf("s%03d", distinct)
		case 2:
			return strconv.Itoa(rng.Intn(300))
		}
		return pool[rng.Intn(len(pool))]
	}
}

// store builds the table with the column constructors.
func (tt testTable) store(t testing.TB) *Store {
	cols := make([]*Column, len(tt.schema))
	for i, cs := range tt.schema {
		switch cs.Kind {
		case Float64:
			vals := make([]float64, len(tt.rows))
			for r, row := range tt.rows {
				vals[r] = row[i].(float64)
			}
			cols[i] = NewFloatColumn(cs.Name, vals)
		case Int64:
			vals := make([]int64, len(tt.rows))
			for r, row := range tt.rows {
				vals[r] = row[i].(int64)
			}
			cols[i] = NewIntColumn(cs.Name, vals)
		case Bool:
			vals := make([]bool, len(tt.rows))
			for r, row := range tt.rows {
				vals[r] = row[i].(bool)
			}
			cols[i] = NewBoolColumn(cs.Name, vals)
		default:
			vals := make([]string, len(tt.rows))
			for r, row := range tt.rows {
				vals[r] = row[i].(string)
			}
			cols[i] = NewCategoricalColumn(cs.Name, vals)
		}
	}
	st, err := NewStore(cols...)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// formatCell renders a typed value as the text AppendStrings parses back to
// the same bits.
func formatCell(v any) string {
	switch v := v.(type) {
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64)
	case int64:
		return strconv.FormatInt(v, 10)
	case bool:
		return strconv.FormatBool(v)
	default:
		return v.(string)
	}
}

// snapshotsOf writes the table once through Store.WriteSnapshot and once
// through each RowBuilder producer path, and returns each file's bytes by
// path name.
func snapshotsOf(t testing.TB, tt testTable) map[string][]byte {
	dir := t.TempDir()
	out := map[string][]byte{}
	read := func(name, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	direct := filepath.Join(dir, "direct.aware")
	if err := tt.store(t).WriteSnapshot(direct); err != nil {
		t.Fatal(err)
	}
	read("WriteSnapshot", direct)

	paths := map[string]func(b *RowBuilder, row []any) error{
		"typed": func(b *RowBuilder, row []any) error {
			for i, v := range row {
				switch v := v.(type) {
				case float64:
					b.SetFloat64(i, v)
				case int64:
					b.SetInt64(i, v)
				case bool:
					b.SetBool(i, v)
				case string:
					b.SetString(i, v)
				}
			}
			return b.EndRow()
		},
		"Append": func(b *RowBuilder, row []any) error { return b.Append(row...) },
		"AppendStrings": func(b *RowBuilder, row []any) error {
			fields := make([]string, len(row))
			for i, v := range row {
				fields[i] = formatCell(v)
			}
			return b.AppendStrings(fields)
		},
	}
	for name, appendRow := range paths {
		path := filepath.Join(dir, name+".aware")
		b, err := NewRowBuilder(tt.schema, path)
		if err != nil {
			t.Fatal(err)
		}
		for r, row := range tt.rows {
			if err := appendRow(b, row); err != nil {
				b.Abort()
				t.Fatalf("%s: row %d: %v", name, r, err)
			}
		}
		if err := b.Finish(); err != nil {
			t.Fatalf("%s: Finish: %v", name, err)
		}
		read(name, path)
	}
	return out
}

// sameSnapshots fails unless every producer path wrote WriteSnapshot's bytes.
func sameSnapshots(t testing.TB, files map[string][]byte) {
	t.Helper()
	want := files["WriteSnapshot"]
	for name, got := range files {
		if !bytes.Equal(got, want) {
			t.Errorf("%s wrote %d bytes that differ from WriteSnapshot's %d", name, len(got), len(want))
		}
	}
}

// batchOf returns the rows per batch of a builder over schema.
func batchOf(t *testing.T, schema Schema) int {
	b, err := NewRowBuilder(schema, filepath.Join(t.TempDir(), "x.aware"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Abort()
	return b.batch
}

// TestBuilderBatchEdges holds every producer path to Store.WriteSnapshot's
// bytes at the row counts around the batch size B, where a pipeline that
// lost, doubled or reordered a batch would show: one row, B−1, B, B+1 and
// 3B+7, over all four kinds and an edge column that turns wide after the
// first batch.
func TestBuilderBatchEdges(t *testing.T) {
	kinds := []Kind{Float64, Int64, Categorical, Bool, Float64, Int64, Categorical, Categorical}
	modes := []int{0, 1, 2, 0, 1, 3, 1, 0}
	schema := genTable(rand.New(rand.NewSource(1)), kinds, modes, 0, 0).schema
	B := batchOf(t, schema)
	if B != batchRows {
		t.Fatalf("a %d-column batch holds %d rows, want %d", len(schema), B, batchRows)
	}
	for _, rows := range []int{1, B - 1, B, B + 1, 3*B + 7} {
		t.Run(strconv.Itoa(rows), func(t *testing.T) {
			tt := genTable(rand.New(rand.NewSource(int64(rows))), kinds, modes, rows, B+5)
			sameSnapshots(t, snapshotsOf(t, tt))
		})
	}
}

// spillsIn returns the spill files in dir.
func spillsIn(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, ".aware-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// settleGoroutines waits up to a few seconds for the goroutine count to fall
// back to want: an encoder that closed done is still exiting for a moment.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: a builder's encoder is still running", runtime.NumGoroutine(), want)
		}
	}
}

// TestBuilderLeavesNothingBehind fails a build at row B+3 (a wrong Go type
// through Append, an unparsable CSV field through IngestCSV) and truncates a
// spill before Finish. Each error keeps its text, and no outcome (Finish,
// Abort or an error) leaves a destination file, a spill file or the encoder
// goroutine behind.
func TestBuilderLeavesNothingBehind(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp) // where the spills go
	schema := Schema{{Name: "f", Kind: Float64}, {Name: "i", Kind: Int64}, {Name: "c", Kind: Categorical}, {Name: "b", Kind: Bool}}
	B := batchOf(t, schema)
	row := func(r int) []any { return []any{float64(r) / 2, int64(r), strconv.Itoa(r % 7), r%3 == 0} }
	check := func(t *testing.T, dest string, start int) {
		t.Helper()
		if _, err := os.Stat(dest); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("destination file left behind: %v", err)
		}
		if left := spillsIn(t, tmp); len(left) != 0 {
			t.Errorf("spill files left behind: %v", left)
		}
		settleGoroutines(t, start)
	}

	t.Run("Finish", func(t *testing.T) {
		start := runtime.NumGoroutine()
		dest := filepath.Join(t.TempDir(), "ok.aware")
		b, err := NewRowBuilder(schema, dest)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2*B+1; r++ {
			if err := b.Append(row(r)...); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Finish(); err != nil {
			t.Fatal(err)
		}
		if len(spillsIn(t, tmp)) != 0 {
			t.Error("spill files left behind")
		}
		settleGoroutines(t, start)
	})
	t.Run("Abort", func(t *testing.T) {
		start := runtime.NumGoroutine()
		dest := filepath.Join(t.TempDir(), "aborted.aware")
		b, err := NewRowBuilder(schema, dest)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < B+3; r++ {
			if err := b.Append(row(r)...); err != nil {
				t.Fatal(err)
			}
		}
		b.Abort()
		b.Abort()
		check(t, dest, start)
	})
	t.Run("wrong type", func(t *testing.T) {
		start := runtime.NumGoroutine()
		dest := filepath.Join(t.TempDir(), "typed.aware")
		b, err := NewRowBuilder(schema, dest)
		if err != nil {
			t.Fatal(err)
		}
		var got error
		for r := 0; r <= B+3 && got == nil; r++ {
			vals := row(r)
			if r == B+3 {
				vals[0] = "1.5"
			}
			got = b.Append(vals...)
		}
		want := fmt.Sprintf(`colstore: row %d column "f": want float64, got string`, B+3)
		if got == nil || got.Error() != want {
			t.Fatalf("error %v, want %s", got, want)
		}
		if err := b.Finish(); err == nil {
			t.Fatal("Finish of a failed builder succeeded")
		}
		check(t, dest, start)
	})
	t.Run("unparsable CSV field", func(t *testing.T) {
		start := runtime.NumGoroutine()
		var text strings.Builder
		text.WriteString("f,i,c,b\n")
		for r := 0; r < B+5; r++ {
			fields := make([]string, len(schema))
			for i, v := range row(r) {
				fields[i] = formatCell(v)
			}
			if r == B+3 {
				fields[1] = "x"
			}
			text.WriteString(strings.Join(fields, ",") + "\n")
		}
		dest := filepath.Join(t.TempDir(), "csv.aware")
		_, got := IngestCSV(strings.NewReader(text.String()), schema, dest)
		want := fmt.Sprintf(`colstore: row %d column "i": strconv.ParseInt: parsing "x": invalid syntax`, B+3)
		if got == nil || got.Error() != want {
			t.Fatalf("error %v, want %s", got, want)
		}
		check(t, dest, start)
	})
	// A spill short by part of a record, or by whole records, fails Finish
	// with an error naming the column rather than recoding stale bytes or
	// writing a column shorter than its rows.
	for _, cut := range []int64{3, 4 * 5} {
		t.Run(fmt.Sprintf("spill short by %d bytes", cut), func(t *testing.T) {
			start := runtime.NumGoroutine()
			dest := filepath.Join(t.TempDir(), "short.aware")
			b, err := NewRowBuilder(schema, dest)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < B+7; r++ {
				if err := b.Append(row(r)...); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.flush(); err != nil {
				t.Fatal(err)
			}
			spill := b.cols[2].f.Name() // column "c": 4-byte records
			fi, err := os.Stat(spill)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(spill, fi.Size()-cut); err != nil {
				t.Fatal(err)
			}
			err = b.Finish()
			if err == nil || !strings.Contains(err.Error(), `column "c"`) || !strings.Contains(err.Error(), "spill holds") {
				t.Fatalf("Finish over a truncated spill: %v", err)
			}
			check(t, dest, start)
		})
	}
}
