package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aware/internal/api"
	"aware/internal/census"
	"aware/internal/client"
	"aware/internal/core"
	"aware/internal/dataset"
)

// This file tests the relational steps over POST /v1/sessions/{id}/steps:
// derive_column, join_dataset and group_by, their journaling, and their
// restoration across a daemon restart (join replay needs the registry-backed
// catalog).

// registerOccupationDim registers a small dimension table keyed by the census
// occupation names under "occupations".
func registerOccupationDim(t *testing.T, s *Server) {
	t.Helper()
	registerOccupations(t, s, "occupations", 1)
}

// registerOccupations registers under name a dimension that holds every
// census occupation perKey times, each row with a sector and a median pay.
func registerOccupations(t *testing.T, s *Server, name string, perKey int) {
	t.Helper()
	var occupations, sectors []string
	var pay []float64
	for rep := 0; rep < perKey; rep++ {
		for i, occ := range census.Occupations {
			occupations = append(occupations, occ)
			sectors = append(sectors, []string{"public", "private"}[(i+rep)%2])
			pay = append(pay, 30000+float64(i)*5000+float64(rep)*100)
		}
	}
	dim, err := dataset.NewTable(
		dataset.NewCategoricalColumn("occupation", occupations),
		dataset.NewCategoricalColumn("sector", sectors),
		dataset.NewFloatColumn("median_pay", pay),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().Register(name, dim); err != nil {
		t.Fatal(err)
	}
}

// bucketHours is the derive_column step used throughout: annual hours,
// bucketed.
var bucketHours = map[string]any{
	"name": "annual_hours_bucket",
	"expression": map[string]any{
		"expr":  "bucket",
		"width": 250.0,
		"arg": map[string]any{
			"expr":  "mul",
			"left":  map[string]any{"expr": "col", "column": "hours_per_week"},
			"right": map[string]any{"expr": "const", "value": 52.0},
		},
	},
}

// TestRelationalEndpoints drives a session through derive, join and group-by
// over HTTP and reads the journal back.
func TestRelationalEndpoints(t *testing.T) {
	s, ts := newTestServer(t)
	registerOccupationDim(t, s)

	var info SessionInfo
	wantStatus(t, doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{"dataset": "census"}, &info), http.StatusCreated)
	base := fmt.Sprintf("%s/v1/sessions/%d", ts.URL, info.ID)

	type stepResp struct {
		Seq        int               `json:"seq"`
		Op         string            `json:"op"`
		Hypothesis *core.ReportEntry `json:"hypothesis"`
	}
	var derived stepResp
	wantStatus(t, postStep(t, base, "derive_column", bucketHours, &derived), http.StatusCreated)
	if derived.Seq != 1 || derived.Op != "derive_column" {
		t.Fatalf("derive response %+v", derived)
	}

	var joined stepResp
	wantStatus(t, postStep(t, base, "join_dataset", map[string]any{
		"dataset": "occupations", "left_key": "occupation", "right_key": "occupation", "prefix": "dim_",
	}, &joined), http.StatusCreated)
	if joined.Seq != 2 || joined.Op != "join_dataset" {
		t.Fatalf("join response %+v", joined)
	}

	// The joined and derived columns are immediately explorable: a group-by
	// over one column from each side.
	var grouped struct {
		Hypothesis      *core.ReportEntry `json:"hypothesis"`
		RemainingWealth float64           `json:"remaining_wealth"`
	}
	wantStatus(t, postStep(t, base, "group_by", map[string]any{
		"row": "dim_sector", "col": "annual_hours_bucket",
	}, &grouped), http.StatusCreated)
	if grouped.Hypothesis == nil || grouped.Hypothesis.ID == 0 {
		t.Fatalf("group-by recorded no hypothesis: %+v", grouped)
	}
	if grouped.RemainingWealth <= 0 {
		t.Fatalf("remaining wealth %v after one test", grouped.RemainingWealth)
	}

	// A plain visualization on a joined column still works.
	wantStatus(t, postStep(t, base, "add_visualization", map[string]any{
		"target": "dim_sector",
		"predicate": map[string]any{
			"type": "gt", "column": "dim_median_pay", "threshold": 40000,
		},
	}, nil), http.StatusCreated)

	// The journal lists all four steps in order with relational kinds intact.
	var log struct {
		Count int                `json:"count"`
		Steps []core.AppliedStep `json:"steps"`
	}
	wantStatus(t, doJSON(t, http.MethodGet, base+"/log", nil, &log), http.StatusOK)
	wantKinds := []string{"derive_column", "join_dataset", "group_by", "add_visualization"}
	if log.Count != len(wantKinds) {
		t.Fatalf("log has %d steps, want %d", log.Count, len(wantKinds))
	}
	for i, entry := range log.Steps {
		if entry.Step.Kind() != wantKinds[i] {
			t.Errorf("journal entry %d is %q, want %q", i, entry.Step.Kind(), wantKinds[i])
		}
	}
}

// TestRelationalEndpointErrors pins the HTTP statuses of misused relational
// steps.
func TestRelationalEndpointErrors(t *testing.T) {
	s, ts := newTestServer(t)
	registerOccupationDim(t, s)

	var info SessionInfo
	wantStatus(t, doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{"dataset": "census"}, &info), http.StatusCreated)
	base := fmt.Sprintf("%s/v1/sessions/%d", ts.URL, info.ID)

	cases := []struct {
		name string
		op   string
		body map[string]any
		want int
	}{
		{"derive without expression", "derive_column", map[string]any{"name": "x"}, http.StatusBadRequest},
		{"derive without name", "derive_column", map[string]any{"expression": map[string]any{"expr": "col", "column": "age"}}, http.StatusBadRequest},
		{"derive duplicate column", "derive_column", map[string]any{"name": "age", "expression": map[string]any{"expr": "col", "column": "age"}}, http.StatusBadRequest},
		{"derive categorical operand", "derive_column", map[string]any{"name": "x", "expression": map[string]any{"expr": "col", "column": "gender"}}, http.StatusBadRequest},
		{"join unknown dataset", "join_dataset", map[string]any{"dataset": "nope", "left_key": "occupation", "right_key": "occupation"}, http.StatusNotFound},
		{"join missing keys", "join_dataset", map[string]any{"dataset": "occupations"}, http.StatusBadRequest},
		{"join key type mismatch", "join_dataset", map[string]any{"dataset": "occupations", "left_key": "age", "right_key": "occupation"}, http.StatusBadRequest},
		{"groupby missing attributes", "group_by", map[string]any{"row": "gender"}, http.StatusBadRequest},
		{"groupby unknown column", "group_by", map[string]any{"row": "gender", "col": "nope"}, http.StatusBadRequest},
		{"groupby bad predicate", "group_by", map[string]any{"row": "gender", "col": "education", "predicate": map[string]any{"type": "nope"}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantStatus(t, postStep(t, base, tc.op, tc.body, nil), tc.want)
		})
	}

	// Failed relational steps never reach the journal.
	var log struct {
		Count int `json:"count"`
	}
	wantStatus(t, doJSON(t, http.MethodGet, base+"/log", nil, &log), http.StatusOK)
	if log.Count != 0 {
		t.Fatalf("journal has %d entries after only failed steps", log.Count)
	}

	// A relational step on a missing session is a 404.
	wantStatus(t, postStep(t, ts.URL+"/v1/sessions/999", "derive_column", bucketHours, nil), http.StatusNotFound)
}

// TestRelationalJournalSurvivesRestart replays derive + join + group-by from
// the journal on restart: the restored session must resolve the join through
// the registry-backed catalog and reproduce the same gauge.
func TestRelationalJournalSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	s1, ts1 := newJournaledServer(t, dir)
	registerOccupationDim(t, s1)
	var info SessionInfo
	wantStatus(t, doJSON(t, http.MethodPost, ts1.URL+"/v1/sessions", map[string]any{"dataset": "census"}, &info), http.StatusCreated)
	base := fmt.Sprintf("%s/v1/sessions/%d", ts1.URL, info.ID)
	wantStatus(t, postStep(t, base, "derive_column", bucketHours, nil), http.StatusCreated)
	wantStatus(t, postStep(t, base, "join_dataset", map[string]any{
		"dataset": "occupations", "left_key": "occupation", "right_key": "occupation", "prefix": "dim_",
	}, nil), http.StatusCreated)
	wantStatus(t, postStep(t, base, "group_by", map[string]any{
		"row": "dim_sector", "col": "annual_hours_bucket",
	}, nil), http.StatusCreated)

	gaugeBefore := doJSON(t, http.MethodGet, base+"/gauge", nil, nil)
	wantStatus(t, gaugeBefore, http.StatusOK)
	before, _ := io.ReadAll(gaugeBefore.Body)

	s2, ts2 := newJournaledServer(t, dir)
	registerOccupationDim(t, s2)
	restored, err := s2.RestoreSessions()
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("restored %d sessions, want 1", restored)
	}
	base2 := fmt.Sprintf("%s/v1/sessions/%d", ts2.URL, info.ID)
	gaugeAfter := doJSON(t, http.MethodGet, base2+"/gauge", nil, nil)
	wantStatus(t, gaugeAfter, http.StatusOK)
	after, _ := io.ReadAll(gaugeAfter.Body)
	if string(before) != string(after) {
		t.Errorf("gauge changed across restart:\nbefore: %s\nafter:  %s", before, after)
	}

	// The restored session's table kept the derived and joined columns: a
	// group-by over them still works.
	wantStatus(t, postStep(t, base2, "group_by", map[string]any{
		"row": "dim_sector", "col": "gender",
	}, nil), http.StatusCreated)
}

// fanOutJoin is a join of the census session to a dimension that holds every
// occupation twice.
var fanOutJoin = api.JoinRequest{Dataset: "occupations_doubled", LeftKey: "occupation", RightKey: "occupation", Prefix: "dim_"}

// TestJoinFanOutRefusedOverHTTP sends a join whose right key repeats to
// POST /steps, raw and through the typed client's Join. It answers 400 with
// the join_fans_out envelope, naming the key and its multiplicity, the client
// returns an *api.Error with that code either way, and the session's log and
// gauge are unchanged.
func TestJoinFanOutRefusedOverHTTP(t *testing.T) {
	s, ts := newTestServer(t)
	registerOccupations(t, s, "occupations_doubled", 2)
	var info SessionInfo
	wantStatus(t, doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{"dataset": "census"}, &info), http.StatusCreated)
	base := fmt.Sprintf("%s/v1/sessions/%d", ts.URL, info.ID)
	wantStatus(t, postStep(t, base, "add_visualization", map[string]any{
		"target": "gender", "predicate": json.RawMessage(highEarners),
	}, nil), http.StatusCreated)
	read := func(path string) []byte {
		resp := doJSON(t, http.MethodGet, base+path, nil, nil)
		wantStatus(t, resp, http.StatusOK)
		raw, _ := io.ReadAll(resp.Body)
		return raw
	}
	gaugeBefore, logBefore := read("/gauge"), read("/log")

	step, err := json.Marshal(map[string]any{"op": "join_dataset", "dataset": fanOutJoin.Dataset,
		"left_key": fanOutJoin.LeftKey, "right_key": fanOutJoin.RightKey, "prefix": fanOutJoin.Prefix})
	if err != nil {
		t.Fatal(err)
	}
	checkErrorResponse(t, http.MethodPost, base+"/steps", string(step), http.StatusBadRequest, api.CodeJoinFansOut)

	c := client.New(ts.URL)
	ctx := context.Background()
	_, stepErr := c.ApplyRawStep(ctx, info.ID, step)
	_, joinErr := c.Join(ctx, info.ID, fanOutJoin)
	for name, err := range map[string]error{"steps": stepErr, "join": joinErr} {
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || apiErr.Code != api.CodeJoinFansOut || apiErr.Status != http.StatusBadRequest {
			t.Fatalf("client %s: %v, want an *api.Error with code %s", name, err, api.CodeJoinFansOut)
		}
		if !strings.Contains(apiErr.Message, "occupation \"") || !strings.Contains(apiErr.Message, "held by 2 right rows") {
			t.Errorf("client %s: message %q names no key and multiplicity", name, apiErr.Message)
		}
	}

	if gauge := read("/gauge"); !bytes.Equal(gauge, gaugeBefore) {
		t.Errorf("the refused joins changed the gauge:\nbefore: %s\nafter:  %s", gaugeBefore, gauge)
	}
	if log := read("/log"); !bytes.Equal(log, logBefore) {
		t.Errorf("the refused joins changed the log:\nbefore: %s\nafter:  %s", logBefore, log)
	}
}

// TestRestoreSkipsJournalWhoseJoinFansOut restores a journal directory whose
// first session joined "occupations" while its key was unique. The restarted
// daemon registers an "occupations" that holds every key twice, so that
// journal's join fans out on replay: RestoreSessions skips it with a warning
// that carries the error and leaves it on disk, and restores the second,
// valid journal.
func TestRestoreSkipsJournalWhoseJoinFansOut(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newJournaledServer(t, dir)
	registerOccupationDim(t, s1)
	var joined, plain SessionInfo
	wantStatus(t, doJSON(t, http.MethodPost, ts1.URL+"/v1/sessions", map[string]any{"dataset": "census"}, &joined), http.StatusCreated)
	wantStatus(t, postStep(t, fmt.Sprintf("%s/v1/sessions/%d", ts1.URL, joined.ID), "join_dataset", map[string]any{
		"dataset": "occupations", "left_key": "occupation", "right_key": "occupation", "prefix": "dim_",
	}, nil), http.StatusCreated)
	wantStatus(t, doJSON(t, http.MethodPost, ts1.URL+"/v1/sessions", map[string]any{"dataset": "census"}, &plain), http.StatusCreated)
	wantStatus(t, postStep(t, fmt.Sprintf("%s/v1/sessions/%d", ts1.URL, plain.ID), "add_visualization", map[string]any{
		"target": "gender", "predicate": json.RawMessage(highEarners),
	}, nil), http.StatusCreated)

	var logs bytes.Buffer
	s2, err := New(Config{Logger: slog.New(slog.NewJSONHandler(&logs, nil)), JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	table, err := census.Generate(census.Config{Rows: 2000, Seed: 7, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Registry().Register("census", table); err != nil {
		t.Fatal(err)
	}
	registerOccupations(t, s2, "occupations", 2)
	restored, err := s2.RestoreSessions()
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("restored %d sessions, want 1", restored)
	}
	warned := false
	for _, line := range logLines(t, &logs) {
		if line["level"] == "WARN" && line["id"] == float64(joined.ID) {
			msg, _ := line["err"].(string)
			warned = strings.Contains(msg, dataset.ErrJoinFansOut.Error())
		}
	}
	if !warned {
		t.Errorf("no warning carries the refused join of session %d:\n%s", joined.ID, logs.String())
	}
	if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("session-%d.jsonl", joined.ID))); err != nil {
		t.Errorf("the skipped journal is gone: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	wantStatus(t, doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/sessions/%d/gauge", ts2.URL, plain.ID), nil, nil), http.StatusOK)
	wantStatus(t, doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/sessions/%d/gauge", ts2.URL, joined.ID), nil, nil), http.StatusNotFound)
}
