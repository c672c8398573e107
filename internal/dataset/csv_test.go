package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"aware/internal/colstore"
)

// writeCSVFile writes the table as CSV to a file under dir.
func writeCSVFile(t testing.TB, dir string, tab *Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return writeFile(t, dir, "table.csv", buf.Bytes())
}

func writeFile(t testing.TB, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// snapshotBytes returns the table's snapshot file.
func snapshotBytes(t testing.TB, tab *Table) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.aware")
	if err := tab.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCSVRoundTrip writes a table of every kind as CSV and loads it back
// under the table's own schema: the snapshot bytes are the original's.
func TestCSVRoundTrip(t *testing.T) {
	tab := sampleTable(t)
	back, err := LoadCSV(writeCSVFile(t, t.TempDir(), tab), tab.Store().Schema())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, back), snapshotBytes(t, tab)) {
		t.Fatal("CSV round trip under the table's schema changed the snapshot")
	}
	if back.Store().Path() != "" || back.Store().Resident() {
		t.Errorf("a loaded CSV is heap-held with no path, got path %q resident %v", back.Store().Path(), back.Store().Resident())
	}
}

// TestLoadCSVInfersKinds loads a CSV without a schema: each column takes the
// narrowest kind its values fit (bool ⊂ int ⊂ float ⊂ categorical).
func TestLoadCSVInfersKinds(t *testing.T) {
	path := writeFile(t, t.TempDir(), "in.csv", []byte("name,flag,score,ratio\nalice,true,10,0.5\nbob,false,20,1\n"))
	tab, err := LoadCSV(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []ColumnType{Categorical, Bool, Int64, Float64}
	for i, name := range tab.ColumnNames() {
		if c, _ := tab.Column(name); c.Type != want[i] {
			t.Errorf("column %q inferred as %v, want %v", name, c.Type, want[i])
		}
	}
}

// TestWriteCSVKeepsLoneEmptyFields writes a one-column table whose empty
// values would otherwise become blank lines, which a CSV reader skips.
func TestWriteCSVKeepsLoneEmptyFields(t *testing.T) {
	values := []string{"", "x", ""}
	tab, err := NewTable(NewCategoricalColumn("a", values))
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(writeCSVFile(t, t.TempDir(), tab), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Strings("a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, values) {
		t.Fatalf("reloaded %q, want %q", got, values)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", t.TempDir())
	x := func(kind colstore.Kind) colstore.Schema { return colstore.Schema{{Name: "x", Kind: kind}} }
	for _, tc := range []struct {
		name, csv string
		schema    colstore.Schema
	}{
		{"empty", "", nil},
		{"ragged row", "x,y\n1,2\n3\n", nil},
		{"bad quote", "x\n\"a\n", nil},
		{"duplicate header", "x,x\n1,2\n", nil},
		{"bad float", "x\nnot-a-number\n", x(colstore.Float64)},
		{"bad int", "x\n1.5\n", x(colstore.Int64)},
		{"bad bool", "x\nmaybe\n", x(colstore.Bool)},
		{"schema misses a column", "x,y\n1,2\n", x(colstore.Int64)},
		{"schema adds a column", "y\n1\n", colstore.Schema{{Name: "x", Kind: colstore.Int64}, {Name: "y", Kind: colstore.Int64}}},
	} {
		path := writeFile(t, dir, "in.csv", []byte(tc.csv))
		if _, err := LoadCSV(path, tc.schema); err == nil {
			t.Errorf("%s: LoadCSV accepted %q", tc.name, tc.csv)
		}
	}
	if _, err := LoadCSV(filepath.Join(dir, "missing.csv"), nil); err == nil {
		t.Error("LoadCSV accepted a missing file")
	}
	if left, _ := os.ReadDir(os.Getenv("TMPDIR")); len(left) != 0 {
		t.Errorf("failed loads left %d files in the temp directory", len(left))
	}
}

// FuzzLoadCSV throws arbitrary bytes at LoadCSV. It must not panic, and a
// table it accepts must survive WriteCSV and a reload under the schema it was
// loaded with, snapshot byte for byte.
func FuzzLoadCSV(f *testing.F) {
	for _, seed := range []string{
		"a\n\"\"\nx\n\"\"\n",
		"name,flag,score,ratio\nalice,true,10,0.5\nbob,false,20,1\n",
		"x,y\n1,2\n3\n",
		"a,b\n\" q\",NaN\n\"x\r\ny\",-0\n,+Inf\n",
		"a\n1e400\nTRUE\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		tab, err := LoadCSV(writeFile(t, dir, "in.csv", data), nil)
		if err != nil {
			return
		}
		back, err := LoadCSV(writeCSVFile(t, dir, tab), tab.Store().Schema())
		if err != nil {
			t.Fatalf("reloading the written CSV: %v", err)
		}
		if !bytes.Equal(snapshotBytes(t, back), snapshotBytes(t, tab)) {
			t.Fatal("WriteCSV and a reload changed the snapshot")
		}
	})
}
