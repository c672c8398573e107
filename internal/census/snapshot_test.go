package census

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"aware/internal/colstore"
	"aware/internal/dataset"
)

// TestCensusSnapshotRoundTrip pins the full storage loop on generator output:
// census CSV → streaming ingest → snapshot → mmap load → CSV must be
// byte-identical to the CSV that came in, under the explicit census schema
// and under inference (where the integral-valued age/hours columns type as
// int64 but still print the same digits).
func TestCensusSnapshotRoundTrip(t *testing.T) {
	cfg := Config{Rows: 2000, Seed: 7, SignalStrength: 1}
	table, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var orig bytes.Buffer
	if err := table.WriteCSV(&orig); err != nil {
		t.Fatal(err)
	}

	check := func(name string, schema colstore.Schema) {
		dest := filepath.Join(t.TempDir(), name+".aware")
		var in bytes.Buffer
		in.Write(orig.Bytes())
		if schema == nil {
			schema, err = colstore.InferCSVSchema(bytes.NewReader(orig.Bytes()))
			if err != nil {
				t.Fatalf("%s: infer: %v", name, err)
			}
		}
		rows, err := colstore.IngestCSV(&in, schema, dest)
		if err != nil {
			t.Fatalf("%s: ingest: %v", name, err)
		}
		if rows != cfg.Rows {
			t.Fatalf("%s: ingested %d rows, want %d", name, rows, cfg.Rows)
		}
		loaded, err := dataset.OpenSnapshot(dest)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		defer loaded.Close()
		var back bytes.Buffer
		if err := loaded.WriteCSV(&back); err != nil {
			t.Fatalf("%s: write back: %v", name, err)
		}
		if !bytes.Equal(orig.Bytes(), back.Bytes()) {
			t.Fatalf("%s: CSV round trip is not byte-identical (%d vs %d bytes)", name, orig.Len(), back.Len())
		}
	}
	check("explicit", Schema())
	check("inferred", nil)
}

// TestCensusRowStreamMatchesGenerate streams the generator through a
// RowBuilder and requires the snapshot to hold exactly the table Generate
// builds — the bridge (Person.AppendTo) awarestore gen uses to write
// million-row snapshots without materializing a table.
func TestCensusRowStreamMatchesGenerate(t *testing.T) {
	cfg := Config{Rows: 1500, Seed: 3, SignalStrength: 1}
	dest := filepath.Join(t.TempDir(), "census.aware")
	b, err := colstore.NewRowBuilder(Schema(), dest)
	if err != nil {
		t.Fatal(err)
	}
	err = EachRow(cfg, func(i int, p Person) error {
		return p.AppendTo(b)
	})
	if err != nil {
		b.Abort()
		t.Fatal(err)
	}
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}

	want, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := dataset.OpenSnapshot(dest)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()

	if loaded.NumRows() != want.NumRows() {
		t.Fatalf("rows: %d vs %d", loaded.NumRows(), want.NumRows())
	}
	if !reflect.DeepEqual(loaded.ColumnNames(), want.ColumnNames()) {
		t.Fatalf("columns: %v vs %v", loaded.ColumnNames(), want.ColumnNames())
	}
	var a, bBuf bytes.Buffer
	if err := want.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := loaded.WriteCSV(&bBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), bBuf.Bytes()) {
		t.Fatal("streamed snapshot differs from Generate")
	}
}
