package colstore

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// ColumnSchema names and types one column of a dataset being ingested (and is
// the per-column element of the schema the store reports back out through
// /v1/datasets).
type ColumnSchema struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
}

// Schema is an ordered column list. Its JSON form is a plain array:
//
//	[{"name": "age", "kind": "float64"}, {"name": "gender", "kind": "categorical"}]
type Schema []ColumnSchema

// Validate checks for empty or duplicate names and unknown kinds.
func (s Schema) Validate() error {
	seen := make(map[string]bool, len(s))
	for i, c := range s {
		if c.Name == "" {
			return fmt.Errorf("colstore: schema column %d has an empty name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("colstore: schema names column %q twice", c.Name)
		}
		seen[c.Name] = true
		if c.Kind >= numKinds {
			return fmt.Errorf("colstore: schema column %q has unknown kind %d", c.Name, int(c.Kind))
		}
	}
	return nil
}

// LoadSchema reads a schema JSON file.
func LoadSchema(path string) (Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Schema
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("colstore: parsing schema %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// SaveSchema writes the schema as indented JSON.
func SaveSchema(path string, s Schema) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// --- schema inference ---

// fieldShape accumulates what value shapes a column has exhibited during an
// inference pass.
type fieldShape struct {
	seen     bool
	canBool  bool
	canInt   bool
	canFloat bool
}

func newFieldShape() fieldShape {
	return fieldShape{canBool: true, canInt: true, canFloat: true}
}

// observe narrows the shape by one string value.
func (f *fieldShape) observe(v string) {
	f.seen = true
	if f.canBool {
		if _, err := strconv.ParseBool(v); err != nil {
			f.canBool = false
		}
	}
	if f.canInt {
		if _, err := strconv.ParseInt(v, 10, 64); err != nil {
			f.canInt = false
		}
	}
	if f.canFloat {
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			f.canFloat = false
		}
	}
}

// kind resolves the narrowed shape to the most specific kind: bool beats int
// beats float beats categorical. Columns that never saw a value import as
// categorical.
func (f *fieldShape) kind() Kind {
	switch {
	case !f.seen:
		return Categorical
	case f.canBool:
		return Bool
	case f.canInt:
		return Int64
	case f.canFloat:
		return Float64
	default:
		return Categorical
	}
}

// InferCSVSchema scans the whole CSV stream once and infers each column's
// kind from the values it actually holds (bool ⊂ int ⊂ float ⊂ categorical).
// It consumes r; file-based callers reopen the file for the ingest pass —
// two sequential passes is the price of exact inference in O(1) row memory.
func InferCSVSchema(r io.Reader) (Schema, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("colstore: reading CSV header: %w", err)
	}
	names := append([]string(nil), header...)
	shapes := make([]fieldShape, len(names))
	for i := range shapes {
		shapes[i] = newFieldShape()
	}
	for row := 0; ; row++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("colstore: inferring schema at CSV row %d: %w", row, err)
		}
		if len(rec) != len(names) {
			return nil, fmt.Errorf("colstore: CSV row %d has %d fields, header has %d", row, len(rec), len(names))
		}
		for i, v := range rec {
			shapes[i].observe(v)
		}
	}
	schema := make(Schema, len(names))
	for i, name := range names {
		schema[i] = ColumnSchema{Name: name, Kind: shapes[i].kind()}
	}
	return schema, schema.Validate()
}

// InferJSONLSchema scans a JSONL stream once and infers the schema. The first
// object fixes the column set; columns are ordered by sorted key name (JSON
// objects are unordered, so this is the only deterministic choice). Every
// later object must hold exactly the same keys. JSON booleans map to bool,
// numbers to int64 when every value is integral and float64 otherwise,
// strings to categorical. Mixing strings and non-strings in one column is an
// error.
func InferJSONLSchema(r io.Reader) (Schema, error) {
	sc := newJSONLScanner(r)
	var names []string
	kinds := map[string]*jsonShape{}
	for sc.next() {
		if names == nil {
			names = sc.sortedKeys()
			for _, k := range names {
				kinds[k] = &jsonShape{canBool: true, canInt: true, canFloat: true}
			}
		}
		if err := sc.checkKeys(names); err != nil {
			return nil, err
		}
		for _, k := range names {
			if err := kinds[k].observe(sc.line, k, sc.obj[k]); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.err(); err != nil {
		return nil, err
	}
	if names == nil {
		return nil, fmt.Errorf("colstore: empty JSONL input, cannot infer a schema")
	}
	schema := make(Schema, len(names))
	for i, k := range names {
		schema[i] = ColumnSchema{Name: k, Kind: kinds[k].kind()}
	}
	return schema, schema.Validate()
}

// jsonShape tracks the JSON value shapes one column exhibited.
type jsonShape struct {
	seen     bool
	canBool  bool
	canInt   bool
	canFloat bool
	isString bool
}

// observe narrows by one decoded JSON value.
func (j *jsonShape) observe(line int, key string, v any) error {
	first := !j.seen
	j.seen = true
	switch val := v.(type) {
	case bool:
		j.canInt, j.canFloat = false, false
		if j.isString {
			return fmt.Errorf("colstore: JSONL line %d: column %q mixes strings and booleans", line, key)
		}
	case json.Number:
		j.canBool = false
		if j.isString {
			return fmt.Errorf("colstore: JSONL line %d: column %q mixes strings and numbers", line, key)
		}
		if j.canInt {
			if _, err := strconv.ParseInt(val.String(), 10, 64); err != nil {
				j.canInt = false
			}
		}
	case string:
		if !first && !j.isString {
			return fmt.Errorf("colstore: JSONL line %d: column %q mixes strings and non-strings", line, key)
		}
		j.isString = true
		j.canBool, j.canInt, j.canFloat = false, false, false
	default:
		return fmt.Errorf("colstore: JSONL line %d: column %q holds unsupported JSON value %v", line, key, v)
	}
	return nil
}

func (j *jsonShape) kind() Kind {
	switch {
	case j.isString || !j.seen:
		return Categorical
	case j.canBool:
		return Bool
	case j.canInt:
		return Int64
	case j.canFloat:
		return Float64
	default:
		return Categorical
	}
}

// jsonlScanner reads one JSON object per non-blank line.
type jsonlScanner struct {
	sc   *bufio.Scanner
	line int
	obj  map[string]any
	e    error
}

func newJSONLScanner(r io.Reader) *jsonlScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &jsonlScanner{sc: sc}
}

// next advances to the next non-blank line, decoding it into obj. Numbers are
// kept as json.Number so int64 values round-trip exactly.
func (s *jsonlScanner) next() bool {
	if s.e != nil {
		return false
	}
	for s.sc.Scan() {
		s.line++
		text := strings.TrimSpace(s.sc.Text())
		if text == "" {
			continue
		}
		dec := json.NewDecoder(strings.NewReader(text))
		dec.UseNumber()
		obj := map[string]any{}
		if err := dec.Decode(&obj); err != nil {
			s.e = fmt.Errorf("colstore: JSONL line %d: %w", s.line, err)
			return false
		}
		s.obj = obj
		return true
	}
	s.e = s.sc.Err()
	return false
}

func (s *jsonlScanner) err() error { return s.e }

// sortedKeys returns the current object's keys sorted — the deterministic
// column order JSONL ingestion uses (JSON objects are unordered).
func (s *jsonlScanner) sortedKeys() []string {
	keys := make([]string, 0, len(s.obj))
	for k := range s.obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkKeys verifies the current object holds exactly the expected keys.
func (s *jsonlScanner) checkKeys(names []string) error {
	if len(s.obj) != len(names) {
		return fmt.Errorf("colstore: JSONL line %d has %d fields, first line has %d", s.line, len(s.obj), len(names))
	}
	for _, k := range names {
		if _, ok := s.obj[k]; !ok {
			return fmt.Errorf("colstore: JSONL line %d is missing column %q", s.line, k)
		}
	}
	return nil
}
