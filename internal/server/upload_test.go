package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aware/internal/api"
	"aware/internal/census"
	"aware/internal/colstore"
	"aware/internal/core"
	"aware/internal/dataset"
)

// upload posts body to POST /v1/datasets?query through the server's handler.
func upload(s *Server, query string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets?"+query, body))
	return rec
}

// TestUploadInfersLikeAwarestore uploads a census CSV: the registered table
// is the one awarestore build makes of the file.
func TestUploadInfersLikeAwarestore(t *testing.T) {
	s, err := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	checkLikeAwarestore(t, func(csvPath string) (*dataset.Table, error) {
		data, err := os.ReadFile(csvPath)
		if err != nil {
			return nil, err
		}
		if rec := upload(s, "name=c", bytes.NewReader(data)); rec.Code != http.StatusCreated {
			t.Fatalf("upload: status %d: %s", rec.Code, rec.Body)
		}
		return s.registry.Get("c")
	})
}

// TestRefusedUploadsLeaveNothingBehind refuses uploads at every stage: the
// query, the body's size, the CSV, the schema and the registry. Each answers
// its error code and leaves no spooled body or snapshot in the temp directory.
// A taken name is refused before the body is read, so a ragged body under it
// is a conflict, not a bad CSV.
func TestRefusedUploadsLeaveNothingBehind(t *testing.T) {
	s, err := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	if rec := upload(s, "name=taken", strings.NewReader("a\n1\n")); rec.Code != http.StatusCreated {
		t.Fatalf("first upload: status %d: %s", rec.Code, rec.Body)
	}
	schema := func(s string) string { return "name=w&schema=" + url.QueryEscape(s) }
	oversized := io.MultiReader(strings.NewReader("a\n"), strings.NewReader(strings.Repeat("1\n", maxUploadBytes/2)))
	for _, tc := range []struct {
		name, query string
		body        io.Reader
		status      int
		code        api.ErrorCode
	}{
		{"ragged row", "name=w", strings.NewReader("a,b\n1,2\n3\n"), http.StatusBadRequest, api.CodeBadRequest},
		{"bad quote", "name=w", strings.NewReader("a\n\"1\n"), http.StatusBadRequest, api.CodeBadRequest},
		{"duplicate name", "name=taken", strings.NewReader("a\n1\n"), http.StatusConflict, api.CodeDatasetExists},
		{"duplicate name, ragged body", "name=taken", strings.NewReader("a,b\n1,2\n3\n"), http.StatusConflict, api.CodeDatasetExists},
		{"schema misses a column", schema(`[{"name": "a", "kind": "int64"}]`), strings.NewReader("a,b\n1,2\n"), http.StatusBadRequest, api.CodeBadRequest},
		{"schema adds a column", schema(`[{"name": "a", "kind": "int64"}, {"name": "b", "kind": "int64"}]`), strings.NewReader("a\n1\n"), http.StatusBadRequest, api.CodeBadRequest},
		{"schema is not JSON", schema(`a:int64`), strings.NewReader("a\n1\n"), http.StatusBadRequest, api.CodeBadRequest},
		{"removed type parameter", "name=w&float=a", strings.NewReader("a\n1\n"), http.StatusBadRequest, api.CodeBadRequest},
		{"body over the limit", "name=w", oversized, http.StatusBadRequest, api.CodeBadRequest},
	} {
		rec := upload(s, tc.query, tc.body)
		var env api.ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != tc.status || env.Code != tc.code {
			t.Errorf("%s: status %d body %s, want %d %s", tc.name, rec.Code, rec.Body, tc.status, tc.code)
		}
		if left, _ := os.ReadDir(tmp); len(left) != 0 {
			t.Errorf("%s: the refused upload left %d files in the temp directory", tc.name, len(left))
		}
	}
	if _, err := s.registry.Get("w"); err == nil {
		t.Error("a refused upload registered its dataset")
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
