package main

import (
	"bytes"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"testing"

	"aware/internal/census"
	"aware/internal/colstore"
	"aware/internal/core"
	"aware/internal/dataset"
	"aware/internal/server"
)

func TestRegisterDatasets(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "pets.csv")
	if err := os.WriteFile(csvPath, []byte("species,sound\ncat,meow\ndog,woof\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	registry := server.NewDatasetRegistry()
	err := registerDatasets(registry, 100, 1, map[string]string{"pets": csvPath})
	if err != nil {
		t.Fatalf("registerDatasets: %v", err)
	}
	infos := registry.List()
	if len(infos) != 2 {
		t.Fatalf("registered %d datasets, want 2 (census + pets)", len(infos))
	}
	censusTable, err := registry.Get("census")
	if err != nil {
		t.Fatal(err)
	}
	if censusTable.NumRows() != 100 {
		t.Errorf("census has %d rows, want 100", censusTable.NumRows())
	}
	pets, err := registry.Get("pets")
	if err != nil {
		t.Fatal(err)
	}
	if pets.NumRows() != 2 {
		t.Errorf("pets has %d rows, want 2", pets.NumRows())
	}
}

// TestRegisterDatasetsInfersLikeAwarestore registers a census CSV with
// -dataset: the table is the one awarestore build makes of the file.
func TestRegisterDatasetsInfersLikeAwarestore(t *testing.T) {
	checkLikeAwarestore(t, func(csvPath string) (*dataset.Table, error) {
		registry := server.NewDatasetRegistry()
		if err := registerDatasets(registry, 0, 1, map[string]string{"c": csvPath}); err != nil {
			return nil, err
		}
		return registry.Get("c")
	})
}

func TestRegisterDatasetsErrors(t *testing.T) {
	if err := registerDatasets(server.NewDatasetRegistry(), 0, 1, nil); err == nil {
		t.Error("no datasets at all should be an error")
	}
	err := registerDatasets(server.NewDatasetRegistry(), 0, 1, map[string]string{"gone": "/no/such/file.csv"})
	if err == nil {
		t.Error("missing CSV file should be an error")
	}
}

func TestParseLevel(t *testing.T) {
	for name, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "warn": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := parseLevel(name)
		if err != nil || got != want {
			t.Errorf("parseLevel(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := parseLevel("loud"); err == nil {
		t.Error("parseLevel(\"loud\") should fail")
	}
}

// checkLikeAwarestore writes the census CSV that `censusgen -rows 5000 -seed
// 7` writes, loads it with load, and fails t unless the table's snapshot is,
// byte for byte, the one awarestore build (colstore.IngestCSVFile) makes of
// the file, and each column's chart under occupation = Sales draws the same
// p-value from both tables, bit for bit. The upload handler, awared -dataset
// and aware -csv each run this check in their own package's tests.
func checkLikeAwarestore(t *testing.T, load func(csvPath string) (*dataset.Table, error)) {
	t.Helper()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	csvPath, builtPath, routedPath := filepath.Join(dir, "census.csv"), filepath.Join(dir, "built.aware"), filepath.Join(dir, "routed.aware")
	table, err := census.Generate(census.Config{Rows: 5000, Seed: 7, SignalStrength: 1})
	check(err)
	var csv bytes.Buffer
	check(table.WriteCSV(&csv))
	check(os.WriteFile(csvPath, csv.Bytes(), 0o644))
	_, _, err = colstore.IngestCSVFile(csvPath, nil, builtPath)
	check(err)
	built, err := dataset.OpenSnapshot(builtPath)
	check(err)
	defer built.Close()
	routed, err := load(csvPath)
	check(err)
	check(routed.Snapshot(routedPath))
	want, _ := os.ReadFile(builtPath)
	if got, _ := os.ReadFile(routedPath); !bytes.Equal(got, want) {
		t.Errorf("the route's table differs from awarestore build's:\n got %v\nwant %v", routed.Store().Schema(), built.Store().Schema())
	}
	sales := dataset.Equals{Column: census.ColOccupation, Value: "Sales"}
	for _, name := range built.ColumnNames() {
		want, _, wantErr := core.FilterVsPopulationTestWith(dataset.NewSelectionCache(built), name, sales)
		got, _, gotErr := core.FilterVsPopulationTestWith(dataset.NewSelectionCache(routed), name, sales)
		if math.Float64bits(got.PValue) != math.Float64bits(want.PValue) || got.DF != want.DF || (gotErr == nil) != (wantErr == nil) {
			t.Errorf("chart of %s: p = %v (%v), awarestore build's p = %v (%v)", name, got.PValue, gotErr, want.PValue, wantErr)
		}
	}
}
