package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// ColumnSpec describes one column of a CSV file for ReadCSV.
type ColumnSpec struct {
	Name string
	Type ColumnType
}

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
		if err := cw.Write(record); err != nil {
			return fmt.Errorf("dataset: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a CSV stream with a header row into a table. The specs give
// the expected type of each column by name; columns present in the CSV but
// absent from specs are imported as Categorical.
func ReadCSV(r io.Reader, specs []ColumnSpec) (*Table, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	typeByName := make(map[string]ColumnType, len(specs))
	for _, s := range specs {
		typeByName[s.Name] = s.Type
	}
	types := make([]ColumnType, len(header))
	for i, name := range header {
		if t, ok := typeByName[name]; ok {
			types[i] = t
		} else {
			types[i] = Categorical
		}
	}
	floats := make([][]float64, len(header))
	ints := make([][]int64, len(header))
	strs := make([][]string, len(header))
	bools := make([][]bool, len(header))

	row := 0
	for {
		record, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV row %d: %w", row, err)
		}
		if len(record) != len(header) {
			return nil, fmt.Errorf("dataset: CSV row %d has %d fields, expected %d", row, len(record), len(header))
		}
		for i, field := range record {
			switch types[i] {
			case Float64:
				v, err := strconv.ParseFloat(field, 64)
				if err != nil {
					return nil, fmt.Errorf("dataset: row %d column %q: %w", row, header[i], err)
				}
				floats[i] = append(floats[i], v)
			case Int64:
				v, err := strconv.ParseInt(field, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("dataset: row %d column %q: %w", row, header[i], err)
				}
				ints[i] = append(ints[i], v)
			case Bool:
				v, err := strconv.ParseBool(field)
				if err != nil {
					return nil, fmt.Errorf("dataset: row %d column %q: %w", row, header[i], err)
				}
				bools[i] = append(bools[i], v)
			default:
				strs[i] = append(strs[i], field)
			}
		}
		row++
	}
	cols := make([]*Column, len(header))
	for i, name := range header {
		switch types[i] {
		case Float64:
			cols[i] = NewFloatColumn(name, floats[i])
		case Int64:
			cols[i] = NewIntColumn(name, ints[i])
		case Bool:
			cols[i] = NewBoolColumn(name, bools[i])
		default:
			cols[i] = NewCategoricalColumn(name, strs[i])
		}
	}
	return NewTable(cols...)
}
