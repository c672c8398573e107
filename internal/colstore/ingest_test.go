package colstore

import (
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const ingestCSV = `name,age,score,active
alice,30,1.5,true
bob,25,2.25,false
alice,41,-3.75,true
`

func TestInferCSVSchema(t *testing.T) {
	schema, err := InferCSVSchema(strings.NewReader(ingestCSV))
	if err != nil {
		t.Fatal(err)
	}
	want := Schema{
		{Name: "name", Kind: Categorical},
		{Name: "age", Kind: Int64},
		{Name: "score", Kind: Float64},
		{Name: "active", Kind: Bool},
	}
	if len(schema) != len(want) {
		t.Fatalf("got %d columns, want %d", len(schema), len(want))
	}
	for i := range want {
		if schema[i] != want[i] {
			t.Errorf("column %d: got %+v, want %+v", i, schema[i], want[i])
		}
	}
}

func TestIngestCSV(t *testing.T) {
	schema, err := InferCSVSchema(strings.NewReader(ingestCSV))
	if err != nil {
		t.Fatal(err)
	}
	dest := filepath.Join(t.TempDir(), "csv.aware")
	rows, err := IngestCSV(strings.NewReader(ingestCSV), schema, dest)
	if err != nil {
		t.Fatal(err)
	}
	if rows != 3 {
		t.Fatalf("ingested %d rows, want 3", rows)
	}
	st, err := Open(dest)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Rows() != 3 {
		t.Fatalf("store has %d rows", st.Rows())
	}
	name := st.Column("name")
	if got := cell(name, 0); got != "alice" {
		t.Errorf("name[0] = %q", got)
	}
	if len(name.Dict) != 2 {
		t.Errorf("name dict has %d entries, want 2", len(name.Dict))
	}
	if got := cell(st.Column("age"), 2); got != int64(41) {
		t.Errorf("age[2] = %d", got)
	}
	if got := cell(st.Column("score"), 2); got != -3.75 {
		t.Errorf("score[2] = %v", got)
	}
	if got := cell(st.Column("active"), 1); got != false {
		t.Errorf("active[1] = %v", got)
	}
}

func TestIngestCSVSchemaMismatch(t *testing.T) {
	dest := filepath.Join(t.TempDir(), "x.aware")
	// Missing column.
	schema := Schema{{Name: "name", Kind: Categorical}}
	if _, err := IngestCSV(strings.NewReader(ingestCSV), schema, dest); err == nil {
		t.Error("short schema accepted")
	}
	// Wrong name.
	schema = Schema{
		{Name: "nom", Kind: Categorical},
		{Name: "age", Kind: Int64},
		{Name: "score", Kind: Float64},
		{Name: "active", Kind: Bool},
	}
	if _, err := IngestCSV(strings.NewReader(ingestCSV), schema, dest); err == nil {
		t.Error("misnamed schema accepted")
	}
	// Unparseable value for the declared kind.
	schema = Schema{
		{Name: "name", Kind: Int64},
		{Name: "age", Kind: Int64},
		{Name: "score", Kind: Float64},
		{Name: "active", Kind: Bool},
	}
	if _, err := IngestCSV(strings.NewReader(ingestCSV), schema, dest); err == nil {
		t.Error("int64 parse of 'alice' accepted")
	}
}

// TestIngestCSVSchemaOrderIndependent checks the snapshot's column order
// follows the CSV header, not the schema slice.
func TestIngestCSVSchemaOrderIndependent(t *testing.T) {
	schema := Schema{
		{Name: "active", Kind: Bool},
		{Name: "score", Kind: Float64},
		{Name: "name", Kind: Categorical},
		{Name: "age", Kind: Int64},
	}
	dest := filepath.Join(t.TempDir(), "ord.aware")
	if _, err := IngestCSV(strings.NewReader(ingestCSV), schema, dest); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dest)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := st.Schema()
	want := []string{"name", "age", "score", "active"}
	for i := range want {
		if got[i].Name != want[i] {
			t.Fatalf("column order %v, want %v", got, want)
		}
	}
}

const ingestJSONL = `{"name":"alice","age":30,"score":1.5,"active":true}
{"name":"bob","age":25,"score":2.25,"active":false}

{"name":"alice","age":41,"score":-3.75,"active":true}
`

func TestInferJSONLSchema(t *testing.T) {
	schema, err := InferJSONLSchema(strings.NewReader(ingestJSONL))
	if err != nil {
		t.Fatal(err)
	}
	// Sorted key order.
	want := Schema{
		{Name: "active", Kind: Bool},
		{Name: "age", Kind: Int64},
		{Name: "name", Kind: Categorical},
		{Name: "score", Kind: Float64},
	}
	if len(schema) != len(want) {
		t.Fatalf("got %d columns, want %d", len(schema), len(want))
	}
	for i := range want {
		if schema[i] != want[i] {
			t.Errorf("column %d: got %+v, want %+v", i, schema[i], want[i])
		}
	}
}

func TestIngestJSONL(t *testing.T) {
	schema, err := InferJSONLSchema(strings.NewReader(ingestJSONL))
	if err != nil {
		t.Fatal(err)
	}
	dest := filepath.Join(t.TempDir(), "jsonl.aware")
	rows, err := IngestJSONL(strings.NewReader(ingestJSONL), schema, dest)
	if err != nil {
		t.Fatal(err)
	}
	if rows != 3 {
		t.Fatalf("ingested %d rows, want 3", rows)
	}
	st, err := Open(dest)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := cell(st.Column("age"), 1); got != int64(25) {
		t.Errorf("age[1] = %d", got)
	}
	if got := cell(st.Column("score"), 0); got != 1.5 {
		t.Errorf("score[0] = %v", got)
	}
	c := st.Column("name")
	if got := cell(c, 1); got != "bob" {
		t.Errorf("name[1] = %q", got)
	}
}

func TestIngestJSONLErrors(t *testing.T) {
	dest := filepath.Join(t.TempDir(), "x.aware")
	schema := Schema{{Name: "a", Kind: Int64}}
	// Key mismatch on a later line.
	if _, err := IngestJSONL(strings.NewReader("{\"a\":1}\n{\"b\":2}\n"), schema, dest); err == nil {
		t.Error("key mismatch accepted")
	}
	// Non-integral value for an int column.
	if _, err := IngestJSONL(strings.NewReader("{\"a\":1.5}\n"), schema, dest); err == nil {
		t.Error("float for int64 accepted")
	}
	// Malformed JSON.
	if _, err := IngestJSONL(strings.NewReader("{\"a\":\n"), schema, dest); err == nil {
		t.Error("malformed JSON accepted")
	}
	// Inference over an empty stream.
	if _, err := InferJSONLSchema(strings.NewReader("\n\n")); err == nil {
		t.Error("empty JSONL inferred a schema")
	}
}

// TestIngestCSVMatchesInMemory ingests a generated CSV and compares the
// resulting store with the directly-constructed one.
func TestIngestCSVMatchesInMemory(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("f,i,c,b\n")
	floats := []float64{0.5, -1.25, 3, 0.5}
	ints := []int64{10, -20, 30, 40}
	cats := []string{"z", "a", "m", "z"}
	bools := []bool{true, false, false, true}
	for i := range floats {
		sb.WriteString(formatCSVRow(floats[i], ints[i], cats[i], bools[i]))
	}
	want, err := NewStore(
		NewFloatColumn("f", floats),
		NewIntColumn("i", ints),
		NewCategoricalColumn("c", cats),
		NewBoolColumn("b", bools),
	)
	if err != nil {
		t.Fatal(err)
	}
	dest := filepath.Join(t.TempDir(), "m.aware")
	if _, err := IngestCSV(strings.NewReader(sb.String()), want.Schema(), dest); err != nil {
		t.Fatal(err)
	}
	got, err := Open(dest)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	sameStore(t, want, got)
}

func formatCSVRow(f float64, i int64, c string, b bool) string {
	return strconv.FormatFloat(f, 'g', -1, 64) + "," +
		strconv.FormatInt(i, 10) + "," + c + "," +
		strconv.FormatBool(b) + "\n"
}
