package server

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"aware/internal/census"
	"aware/internal/dataset"
)

// TestRegisterSnapshotDir covers the awared -data discovery path: every
// loadable *.aware in the directory registers under its base name, corrupt
// files and name collisions are skipped (the server still starts), and a
// missing directory is an error.
func TestRegisterSnapshotDir(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	dir := t.TempDir()

	mem, err := census.Generate(census.Config{Rows: 300, Seed: 4, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha", "beta"} {
		if err := mem.Snapshot(filepath.Join(dir, name+".aware")); err != nil {
			t.Fatal(err)
		}
	}
	// A corrupt snapshot: valid prefix, flipped tail byte.
	raw, err := os.ReadFile(filepath.Join(dir, "alpha.aware"))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, "broken.aware"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// A non-snapshot file that must be ignored entirely.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := NewDatasetRegistry()
	n, err := r.RegisterSnapshotDir(dir, logger)
	if err != nil {
		t.Fatalf("RegisterSnapshotDir: %v", err)
	}
	if n != 2 {
		t.Fatalf("registered %d datasets, want 2", n)
	}
	for _, name := range []string{"alpha", "beta"} {
		tab, err := r.Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if tab.NumRows() != 300 {
			t.Fatalf("%q has %d rows", name, tab.NumRows())
		}
		if _, err := r.Cache(name); err != nil {
			t.Fatalf("Cache(%q): %v", name, err)
		}
	}
	if _, err := r.Get("broken"); err == nil {
		t.Fatal("corrupt snapshot was registered")
	}

	// A name collision (alpha already registered) is skipped, not fatal.
	n, err = r.RegisterSnapshotDir(dir, logger)
	if err != nil {
		t.Fatalf("second RegisterSnapshotDir: %v", err)
	}
	if n != 0 {
		t.Fatalf("second scan registered %d datasets, want 0", n)
	}

	if _, err := r.RegisterSnapshotDir(filepath.Join(dir, "missing"), logger); err == nil {
		t.Fatal("missing directory accepted")
	}
}

// TestDatasetListingStorageInfo checks what GET /v1/datasets and
// /debug/metrics report for heap-backed vs snapshot-backed datasets: schema
// with kinds, storage mode, and snapshot provenance.
func TestDatasetListingStorageInfo(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	s, err := New(Config{Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := census.Generate(census.Config{Rows: 500, Seed: 2, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().Register("census", mem); err != nil {
		t.Fatal(err)
	}

	snapPath := filepath.Join(t.TempDir(), "census.aware")
	if err := mem.Snapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	loaded, err := dataset.OpenSnapshot(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loaded.Close() })
	if err := s.Registry().Register("census-snap", loaded); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var listing struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	resp := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil, &listing)
	wantStatus(t, resp, http.StatusOK)
	if len(listing.Datasets) != 2 {
		t.Fatalf("got %d datasets, want 2", len(listing.Datasets))
	}
	byName := map[string]DatasetInfo{}
	for _, d := range listing.Datasets {
		byName[d.Name] = d
	}

	heap := byName["census"]
	if heap.Storage != "heap" {
		t.Errorf("census storage = %q, want heap", heap.Storage)
	}
	if heap.Snapshot != nil {
		t.Errorf("census snapshot = %+v, want nil", heap.Snapshot)
	}
	if len(heap.Schema) != len(heap.Columns) || len(heap.Schema) == 0 {
		t.Fatalf("census schema has %d entries, columns %d", len(heap.Schema), len(heap.Columns))
	}
	kinds := map[string]string{}
	for _, c := range heap.Schema {
		kinds[c.Name] = c.Kind
	}
	for col, want := range map[string]string{
		"gender": "categorical", "age": "float64", "salary_over_50k": "bool",
	} {
		if kinds[col] != want {
			t.Errorf("census schema %s = %q, want %q", col, kinds[col], want)
		}
	}

	snap := byName["census-snap"]
	if snap.Rows != 500 {
		t.Errorf("census-snap rows = %d, want 500", snap.Rows)
	}
	if want := loaded.Store().Resident(); (snap.Storage == "mmap") != want {
		t.Errorf("census-snap storage = %q, store resident = %v", snap.Storage, want)
	}
	if snap.Snapshot == nil {
		t.Fatal("census-snap has no snapshot info")
	}
	if snap.Snapshot.Path != snapPath {
		t.Errorf("snapshot path = %q, want %q", snap.Snapshot.Path, snapPath)
	}
	if snap.Snapshot.SizeBytes != loaded.Store().SizeBytes() || snap.Snapshot.SizeBytes <= 0 {
		t.Errorf("snapshot size = %d, store says %d", snap.Snapshot.SizeBytes, loaded.Store().SizeBytes())
	}

	var metrics MetricsSnapshot
	resp = doJSON(t, http.MethodGet, ts.URL+"/debug/metrics", nil, &metrics)
	wantStatus(t, resp, http.StatusOK)
	if len(metrics.DatasetStorage) != 2 {
		t.Fatalf("dataset_storage has %d entries, want 2", len(metrics.DatasetStorage))
	}
	ms := metrics.DatasetStorage["census-snap"]
	if ms.Snapshot == nil || ms.Snapshot.Path != snapPath || ms.Rows != 500 {
		t.Errorf("debug metrics census-snap = %+v", ms)
	}
}
