package colstore

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata golden snapshot")

// goldenStore is the fixed dataset behind testdata/golden_v2.aware (and,
// written by the previous format, golden_v1.aware): small enough to commit,
// wide enough to cover every kind, dictionary and padding path. Do not change
// its content — the committed fixture is the cross-commit compatibility
// witness for format version 2.
func goldenStore(t *testing.T) *Store {
	t.Helper()
	st, err := NewStore(
		NewFloatColumn("age", []float64{39, 50, 38, 53, 28}),
		NewIntColumn("hours", []int64{40, 13, 40, 40, 40}),
		NewCategoricalColumn("occupation", []string{"Adm-clerical", "Exec-managerial", "Handlers-cleaners", "Handlers-cleaners", "Prof-specialty"}),
		NewBoolColumn("over50k", []bool{false, false, false, false, false}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

const (
	goldenPath   = "testdata/golden_v2.aware"
	goldenV1Path = "testdata/golden_v1.aware"
)

// TestSnapshotGolden pins the version-2 wire format: the bytes WriteSnapshot
// produces today must equal the committed fixture, and the committed fixture
// must still decode to the expected content. A format change that breaks
// either fails CI until the version is bumped and the fixture regenerated
// with `go test ./internal/colstore -run TestSnapshotGolden -update`.
func TestSnapshotGolden(t *testing.T) {
	st := goldenStore(t)
	tmp := filepath.Join(t.TempDir(), "golden.aware")
	if err := st.WriteSnapshot(tmp); err != nil {
		t.Fatal(err)
	}
	current, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, current, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(current))
		return
	}

	committed, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with -update): %v", err)
	}
	if !bytes.Equal(current, committed) {
		t.Fatalf("WriteSnapshot output differs from committed %s: format drifted without a version bump (current %d bytes, committed %d)", goldenPath, len(current), len(committed))
	}

	loaded, err := Open(goldenPath)
	if err != nil {
		t.Fatalf("decoding committed fixture: %v", err)
	}
	defer loaded.Close()
	if loaded.Version() != SnapshotVersion {
		t.Fatalf("fixture is version %d, decoder expects %d", loaded.Version(), SnapshotVersion)
	}
	sameStore(t, st, loaded)

	// The same rows in format version 1 are refused as a version, not as
	// damage, and the error says how to rebuild the file.
	if _, err := Open(goldenV1Path); !errors.Is(err, ErrSnapshotVersion) || !strings.Contains(err.Error(), "awarestore build") {
		t.Fatalf("opening the v1 fixture: %v, want ErrSnapshotVersion", err)
	}
}
