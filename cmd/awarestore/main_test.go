package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"aware/internal/census"
	"aware/internal/colstore"
	"aware/internal/dataset"
)

// writeCensusCSV writes a small census CSV fixture and returns its path.
func writeCensusCSV(t *testing.T, dir string, rows int) string {
	t.Helper()
	table, err := census.Generate(census.Config{Rows: rows, Seed: 5, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := table.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "census.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBuildCSVInferred(t *testing.T) {
	dir := t.TempDir()
	in := writeCensusCSV(t, dir, 400)
	out := filepath.Join(dir, "census.aware")
	schemaOut := filepath.Join(dir, "schema.json")
	if err := cmdBuild([]string{"-in", in, "-out", out, "-emit-schema", schemaOut}); err != nil {
		t.Fatal(err)
	}
	st, err := colstore.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Rows() != 400 || st.NumColumns() != 7 {
		t.Fatalf("snapshot is %d x %d", st.Rows(), st.NumColumns())
	}
	schema, err := colstore.LoadSchema(schemaOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(schema) != 7 {
		t.Fatalf("emitted schema has %d columns", len(schema))
	}
}

func TestBuildCSVExplicitSchema(t *testing.T) {
	dir := t.TempDir()
	in := writeCensusCSV(t, dir, 300)
	schemaPath := filepath.Join(dir, "schema.json")
	if err := colstore.SaveSchema(schemaPath, census.Schema()); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "census.aware")
	if err := cmdBuild([]string{"-in", in, "-out", out, "-schema", schemaPath}); err != nil {
		t.Fatal(err)
	}
	loaded, err := dataset.OpenSnapshot(out)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	// Under the explicit schema the round trip is byte-identical.
	orig, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	var back bytes.Buffer
	if err := loaded.WriteCSV(&back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, back.Bytes()) {
		t.Fatal("snapshot CSV round trip is not byte-identical")
	}
}

func TestBuildJSONL(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "rows.jsonl")
	jsonl := `{"name":"a","n":1}
{"name":"b","n":2}
`
	if err := os.WriteFile(in, []byte(jsonl), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "rows.aware")
	if err := cmdBuild([]string{"-in", in, "-out", out}); err != nil {
		t.Fatal(err)
	}
	st, err := colstore.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Rows() != 2 {
		t.Fatalf("snapshot has %d rows", st.Rows())
	}
	n := st.Column("n")
	if n.Encoding() != "codes=u8 values=2" || int64(n.Values[n.Codes8[1]]) != 2 {
		t.Fatalf("n stored as %s, n[1] = %d", n.Encoding(), int64(n.Values[n.Codes8[1]]))
	}
}

// TestGenMatchesGenerate checks gen's streamed snapshot equals the
// materialized census table, over three row batches of the builder's
// pipeline and part of a fourth.
func TestGenMatchesGenerate(t *testing.T) {
	const rows = 3*4096 + 7
	dir := t.TempDir()
	out := filepath.Join(dir, "census.aware")
	if err := cmdGen([]string{"-rows", strconv.Itoa(rows), "-seed", "9", "-out", out}); err != nil {
		t.Fatal(err)
	}
	loaded, err := dataset.OpenSnapshot(out)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	want, err := census.Generate(census.Config{Rows: rows, Seed: 9, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := want.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := loaded.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("gen snapshot differs from census.Generate")
	}
}

func TestInspectAndVerify(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "c.aware")
	if err := cmdGen([]string{"-rows", "100", "-out", out}); err != nil {
		t.Fatal(err)
	}
	if err := cmdInspect([]string{out}); err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if err := cmdVerify([]string{"-q", out}); err != nil {
		t.Fatalf("verify: %v", err)
	}

	// Corrupt the file: verify must fail.
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	bad := filepath.Join(dir, "bad.aware")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-q", bad}); err == nil {
		t.Fatal("verify accepted a corrupt snapshot")
	}
	if err := cmdVerify([]string{"-q", out, bad}); err == nil {
		t.Fatal("verify accepted a list containing a corrupt snapshot")
	}
	// A snapshot of the previous format is refused as a version to rebuild.
	if err := cmdVerify([]string{"-q", "../../internal/colstore/testdata/golden_v1.aware"}); !errors.Is(err, colstore.ErrSnapshotVersion) {
		t.Fatalf("verify of a v1 snapshot: %v, want ErrSnapshotVersion", err)
	}
}

func TestBuildErrors(t *testing.T) {
	dir := t.TempDir()
	if err := cmdBuild([]string{"-out", filepath.Join(dir, "x.aware")}); err == nil {
		t.Error("missing -in accepted")
	}
	if err := cmdBuild([]string{"-in", filepath.Join(dir, "missing.csv"), "-out", filepath.Join(dir, "x.aware")}); err == nil {
		t.Error("missing input file accepted")
	}
	in := writeCensusCSV(t, dir, 10)
	if err := cmdBuild([]string{"-in", in, "-format", "parquet", "-out", filepath.Join(dir, "x.aware")}); err == nil {
		t.Error("unknown format accepted")
	}
}
