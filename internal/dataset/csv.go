package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"aware/internal/colstore"
)

// WriteCSV serializes the table as CSV with a header row. Float values use
// the shortest representation that round-trips.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.ColumnNames()); err != nil {
		return fmt.Errorf("dataset: writing CSV header: %w", err)
	}
	record := make([]string, len(t.columns))
	for i := 0; i < t.rows; i++ {
		for j, c := range t.columns {
			switch c.Type {
			case Float64:
				record[j] = strconv.FormatFloat(c.floatAt(i), 'g', -1, 64)
			case Int64:
				record[j] = strconv.FormatInt(c.intAt(i), 10)
			default:
				record[j] = c.dict[c.code(i)]
			}
		}
		if len(record) == 1 && record[0] == "" {
			// csv.Writer writes a lone empty field as a blank line, which
			// csv.Reader skips: quote it so the row survives a reload.
			cw.Flush()
			if _, err := io.WriteString(w, "\"\"\n"); err != nil {
				return fmt.Errorf("dataset: writing CSV row %d: %w", i, err)
			}
			continue
		}
		if err := cw.Write(record); err != nil {
			return fmt.Errorf("dataset: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// LoadCSV reads a CSV file with a header row into a heap-held table through
// the snapshot builder (colstore.IngestCSVFile), so a CSV becomes the same
// table by every route that loads it, awarestore build included. A nil
// schema infers each column's kind from its values (bool ⊂ int ⊂ float ⊂
// categorical); a given one must name the header's columns exactly. The
// intermediate snapshot is removed in every outcome.
func LoadCSV(path string, schema colstore.Schema) (*Table, error) {
	dir, err := os.MkdirTemp("", ".aware-csv-*")
	if err != nil {
		return nil, fmt.Errorf("dataset: loading CSV: %w", err)
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "table.aware")
	if _, _, err := colstore.IngestCSVFile(path, schema, snap); err != nil {
		return nil, fmt.Errorf("dataset: loading CSV: %w", err)
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		return nil, fmt.Errorf("dataset: loading CSV: %w", err)
	}
	store, err := colstore.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("dataset: loading CSV: %w", err)
	}
	return FromStore(store)
}
