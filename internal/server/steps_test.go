package server

import (
	"encoding/json"
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
	"aware/internal/core"
)

// TestStepsEndpointAndLog drives a session purely through the generic command
// endpoint and reads the journal back.
func TestStepsEndpointAndLog(t *testing.T) {
	_, ts := newTestServer(t)

	var info SessionInfo
	wantStatus(t, doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{"dataset": "census"}, &info), http.StatusCreated)
	base := fmt.Sprintf("%s/v1/sessions/%d", ts.URL, info.ID)

	// Apply three steps: two filtered visualizations and a comparison.
	type stepResp struct {
		Seq        int `json:"seq"`
		Op         string
		Hypothesis *core.ReportEntry `json:"hypothesis"`
		Viz        *struct {
			ID int `json:"id"`
		} `json:"visualization"`
		RemainingWealth float64 `json:"remaining_wealth"`
	}
	var first stepResp
	wantStatus(t, doJSON(t, http.MethodPost, base+"/steps", map[string]any{
		"op": "add_visualization", "target": "gender", "predicate": json.RawMessage(highEarners),
	}, &first), http.StatusCreated)
	if first.Seq != 1 || first.Viz == nil || first.Viz.ID != 1 || first.Hypothesis == nil {
		t.Fatalf("first step response %+v", first)
	}
	var second stepResp
	wantStatus(t, doJSON(t, http.MethodPost, base+"/steps", map[string]any{
		"op": "add_visualization", "target": "gender",
		"predicate": json.RawMessage(`{"type": "not", "term": ` + highEarners + `}`),
	}, &second), http.StatusCreated)
	var third stepResp
	wantStatus(t, doJSON(t, http.MethodPost, base+"/steps", map[string]any{
		"op": "compare_visualizations", "a": 1, "b": 2,
	}, &third), http.StatusCreated)
	if third.Seq != 3 || third.Hypothesis == nil {
		t.Fatalf("compare step response %+v", third)
	}

	// Star the comparison through the generic endpoint too.
	wantStatus(t, doJSON(t, http.MethodPost, base+"/steps", map[string]any{
		"op": "star", "hypothesis": third.Hypothesis.ID, "starred": true,
	}, nil), http.StatusCreated)

	// Malformed steps are rejected without touching the session.
	wantStatus(t, doJSON(t, http.MethodPost, base+"/steps", map[string]any{"op": "drop_table"}, nil), http.StatusBadRequest)
	wantStatus(t, doJSON(t, http.MethodPost, base+"/steps", map[string]any{
		"op": "star", "hypothesis": 99,
	}, nil), http.StatusNotFound)

	// The journal lists exactly the four applied steps, replayable client-side.
	var log struct {
		Count int                `json:"count"`
		Steps []core.AppliedStep `json:"steps"`
	}
	wantStatus(t, doJSON(t, http.MethodGet, base+"/log", nil, &log), http.StatusOK)
	if log.Count != 4 || len(log.Steps) != 4 {
		t.Fatalf("log has %d/%d steps, want 4", log.Count, len(log.Steps))
	}
	wantKinds := []string{"add_visualization", "add_visualization", "compare_visualizations", "star"}
	for i, entry := range log.Steps {
		if entry.Seq != i+1 {
			t.Errorf("entry %d seq = %d", i, entry.Seq)
		}
		if entry.Step.Kind() != wantKinds[i] {
			t.Errorf("entry %d kind = %q, want %q", i, entry.Step.Kind(), wantKinds[i])
		}
	}

	// The whole log re-validates on a hold-out split over HTTP.
	var replay struct {
		StepsReplayed int `json:"steps_replayed"`
		ActiveTotal   int `json:"active_total"`
		Hypotheses    []struct {
			Kind      string `json:"kind"`
			Validated bool   `json:"validated"`
		} `json:"hypotheses"`
	}
	wantStatus(t, doJSON(t, http.MethodPost, base+"/holdout/replay", map[string]any{}, &replay), http.StatusOK)
	if replay.StepsReplayed != 4 || replay.ActiveTotal != 1 || len(replay.Hypotheses) != 3 {
		t.Fatalf("holdout replay %+v", replay)
	}
	for _, h := range replay.Hypotheses {
		if !h.Validated {
			t.Errorf("hypothesis not validated: %+v", h)
		}
	}
}

// newJournaledServer builds a server journaling to dir with the census
// registered.
func newJournaledServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		JournalDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	table, err := census.Generate(census.Config{Rows: 2000, Seed: 7, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().Register("census", table); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestJournalSurvivesRestart is the durability acceptance criterion: a
// journaled session must be restored after a daemon restart with identical
// gauge state.
func TestJournalSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	// First daemon lifetime: one session driven through the steps endpoint,
	// plus one session that is deleted again.
	_, ts1 := newJournaledServer(t, dir)
	var info SessionInfo
	wantStatus(t, doJSON(t, http.MethodPost, ts1.URL+"/v1/sessions",
		map[string]any{"dataset": "census", "policy": "gamma-fixed", "alpha": 0.1}, &info), http.StatusCreated)
	base := fmt.Sprintf("%s/v1/sessions/%d", ts1.URL, info.ID)
	wantStatus(t, postStep(t, base, "add_visualization", map[string]any{
		"target": "gender", "predicate": json.RawMessage(highEarners),
	}, nil), http.StatusCreated)
	wantStatus(t, postStep(t, base, "add_visualization", map[string]any{
		"target": "education", "predicate": json.RawMessage(graduates),
	}, nil), http.StatusCreated)
	wantStatus(t, postStep(t, base, "star", map[string]any{"hypothesis": 1, "starred": true}, nil), http.StatusCreated)

	var doomed SessionInfo
	wantStatus(t, doJSON(t, http.MethodPost, ts1.URL+"/v1/sessions", map[string]any{"dataset": "census"}, &doomed), http.StatusCreated)
	wantStatus(t, doJSON(t, http.MethodDelete, fmt.Sprintf("%s/v1/sessions/%d", ts1.URL, doomed.ID), nil, nil), http.StatusNoContent)

	gaugeBefore := doJSON(t, http.MethodGet, base+"/gauge", nil, nil)
	wantStatus(t, gaugeBefore, http.StatusOK)
	before, _ := io.ReadAll(gaugeBefore.Body)

	// "Restart": a fresh server over the same journal directory and dataset.
	s2, ts2 := newJournaledServer(t, dir)
	restored, err := s2.RestoreSessions()
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("restored %d sessions, want 1 (the deleted one must stay gone)", restored)
	}
	gaugeAfter := doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/sessions/%d/gauge", ts2.URL, info.ID), nil, nil)
	wantStatus(t, gaugeAfter, http.StatusOK)
	after, _ := io.ReadAll(gaugeAfter.Body)
	if string(before) != string(after) {
		t.Errorf("gauge state changed across restart:\nbefore: %s\nafter:  %s", before, after)
	}

	// The restored session's spec survived too: policy and alpha stick.
	var restoredInfo SessionInfo
	wantStatus(t, doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/sessions/%d", ts2.URL, info.ID), nil, &restoredInfo), http.StatusOK)
	if restoredInfo.Alpha != 0.1 || restoredInfo.Policy != "gamma-fixed(10)" {
		t.Errorf("restored session lost its spec: %+v", restoredInfo)
	}

	// New sessions never collide with restored IDs (deleted sessions take
	// their journals with them, so only surviving IDs form the ceiling).
	var next SessionInfo
	wantStatus(t, doJSON(t, http.MethodPost, ts2.URL+"/v1/sessions", map[string]any{"dataset": "census"}, &next), http.StatusCreated)
	if next.ID <= info.ID {
		t.Errorf("new session ID %d not past the restored ceiling %d", next.ID, info.ID)
	}

	// And the restored session keeps journaling: a step applied after the
	// restart lands in the same file.
	wantStatus(t, doJSON(t, http.MethodPost, fmt.Sprintf("%s/v1/sessions/%d/steps", ts2.URL, info.ID), map[string]any{
		"op": "compare_visualizations", "a": 1, "b": 2,
	}, nil), http.StatusBadRequest) // different targets: rejected, not journaled
	wantStatus(t, doJSON(t, http.MethodPost, fmt.Sprintf("%s/v1/sessions/%d/steps", ts2.URL, info.ID), map[string]any{
		"op": "star", "hypothesis": 2, "starred": true,
	}, nil), http.StatusCreated)
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("session-%d.jsonl", info.ID)))
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, b := range data {
		if b == '\n' {
			lines++
		}
	}
	if lines != 1+4 { // header + 3 steps before restart + 1 after
		t.Errorf("journal has %d lines, want 5:\n%s", lines, data)
	}
}

// TestStepsRefuseTrailingData: a /steps body holding anything after the
// step but whitespace — garbage, or a second step — is 400 step_invalid and
// leaves the session, its log and its journal as they were; a trailing
// newline is whitespace, and the step applies.
func TestStepsRefuseTrailingData(t *testing.T) {
	dir := t.TempDir()
	_, ts := newJournaledServer(t, dir)
	var info SessionInfo
	wantStatus(t, doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{"dataset": "census"}, &info), http.StatusCreated)
	base := fmt.Sprintf("%s/v1/sessions/%d", ts.URL, info.ID)
	wantStatus(t, postStep(t, base, "add_visualization", map[string]any{
		"target": "gender", "predicate": json.RawMessage(highEarners),
	}, nil), http.StatusCreated)
	journal := filepath.Join(dir, fmt.Sprintf("session-%d.jsonl", info.ID))
	state := func() string {
		data, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		gauge, _ := io.ReadAll(doJSON(t, http.MethodGet, base+"/gauge", nil, nil).Body)
		log, _ := io.ReadAll(doJSON(t, http.MethodGet, base+"/log", nil, nil).Body)
		return string(data) + string(gauge) + string(log)
	}
	before := state()
	star := `{"op": "star", "hypothesis": 1, "starred": true}`
	for _, body := range []string{
		star + ` trailing garbage`,
		star + star,
		star + "\n" + `{"op": "star", "hypothesis": 1, "starred": false}`,
	} {
		checkErrorResponse(t, http.MethodPost, base+"/steps", body, http.StatusBadRequest, api.CodeStepInvalid)
		if after := state(); after != before {
			t.Fatalf("%q changed the session:\nbefore: %s\nafter:  %s", body, before, after)
		}
	}
	resp, err := http.Post(base+"/steps", "application/json", strings.NewReader(star+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wantStatus(t, resp, http.StatusCreated)
	if data, _ := os.ReadFile(journal); strings.Count(string(data), "\n") != 1+2 {
		t.Errorf("journal after the star with a trailing newline:\n%s", data)
	}
}

// TestRestoreSkipsUnknownDataset keeps journals for datasets that are not
// registered (yet) instead of failing or deleting them.
func TestRestoreSkipsUnknownDataset(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "session-9.jsonl"),
		[]byte(`{"dataset": "missing"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, _ := newJournaledServer(t, dir)
	restored, err := s.RestoreSessions()
	if err != nil {
		t.Fatal(err)
	}
	if restored != 0 {
		t.Fatalf("restored %d, want 0", restored)
	}
	if _, err := os.Stat(filepath.Join(dir, "session-9.jsonl")); err != nil {
		t.Errorf("journal for the unknown dataset was removed: %v", err)
	}
}

// TestRestoreToleratesCorruptJournals is the crash-recovery regression test:
// unreadable journals (empty file, garbage header) must not prevent the
// daemon from restoring the healthy ones, and a truncated final step line —
// the artifact of dying mid-append — must replay as its intact prefix.
func TestRestoreToleratesCorruptJournals(t *testing.T) {
	dir := t.TempDir()

	// A healthy session from a first daemon lifetime.
	_, ts1 := newJournaledServer(t, dir)
	var info SessionInfo
	wantStatus(t, doJSON(t, http.MethodPost, ts1.URL+"/v1/sessions", map[string]any{"dataset": "census"}, &info), http.StatusCreated)
	wantStatus(t, doJSON(t, http.MethodPost, fmt.Sprintf("%s/v1/sessions/%d/steps", ts1.URL, info.ID), map[string]any{
		"op": "add_visualization", "target": "gender", "predicate": json.RawMessage(highEarners),
	}, nil), http.StatusCreated)

	// Crash artifacts: an empty journal (died before the header hit disk), a
	// garbage header, and a healthy journal whose last append was cut short.
	if err := os.WriteFile(filepath.Join(dir, "session-7.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "session-8.jsonl"), []byte("{\"data"), 0o644); err != nil {
		t.Fatal(err)
	}
	truncated := `{"dataset": "census"}` + "\n" +
		`{"op": "add_visualization", "target": "gender", "predicate": ` + highEarners + `}` + "\n" +
		`{"op": "star", "hypo` // cut mid-append
	if err := os.WriteFile(filepath.Join(dir, "session-9.jsonl"), []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newJournaledServer(t, dir)
	restored, err := s2.RestoreSessions()
	if err != nil {
		t.Fatalf("RestoreSessions must not fail on corrupt journals: %v", err)
	}
	if restored != 2 {
		t.Fatalf("restored %d sessions, want 2 (the healthy one and the truncated prefix)", restored)
	}
	// The truncated journal replayed its one intact step.
	var gauge struct {
		Tests int `json:"tests"`
	}
	wantStatus(t, doJSON(t, http.MethodGet, ts2.URL+"/v1/sessions/9/gauge", nil, &gauge), http.StatusOK)
	if gauge.Tests != 1 {
		t.Errorf("truncated journal restored %d tests, want 1", gauge.Tests)
	}
	// The unreadable files stay on disk for the operator.
	for _, name := range []string{"session-7.jsonl", "session-8.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("corrupt journal %s was removed: %v", name, err)
		}
	}
}

// TestAppendRefusesRemovedJournal pins the DELETE/append race fix: once a
// session's journal is removed, a straggling append must fail rather than
// resurrect the file as a header-less husk.
func TestAppendRefusesRemovedJournal(t *testing.T) {
	j, err := newJournalStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Create(1, SessionSpec{Dataset: "census"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(1, core.Star{Hypothesis: 1, Starred: true}); err != nil {
		t.Fatal(err)
	}
	j.Remove(1)
	if err := j.Append(1, core.Star{Hypothesis: 1, Starred: false}); err == nil {
		t.Fatal("append after Remove succeeded; the journal file must not be resurrected")
	}
	if _, err := os.Stat(j.path(1)); !os.IsNotExist(err) {
		t.Errorf("journal file reappeared after Remove: %v", err)
	}
}

// TestTornJournalTailIsTruncatedOnReopen covers the second-order crash case:
// after restoring a journal with a torn final line, new appends must go to a
// file truncated to the intact prefix — otherwise the next restart finds the
// new step concatenated onto the torn fragment mid-file and loses the whole
// journal.
func TestTornJournalTailIsTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	torn := `{"dataset": "census"}` + "\n" +
		`{"op": "add_visualization", "target": "gender", "predicate": ` + highEarners + `}` + "\n" +
		`{"op": "star", "hypo` // crash mid-append
	if err := os.WriteFile(filepath.Join(dir, "session-3.jsonl"), []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart 1: restore the prefix, then apply a new step.
	s1, ts1 := newJournaledServer(t, dir)
	if restored, err := s1.RestoreSessions(); err != nil || restored != 1 {
		t.Fatalf("restart 1: restored %d, err %v", restored, err)
	}
	wantStatus(t, doJSON(t, http.MethodPost, ts1.URL+"/v1/sessions/3/steps", map[string]any{
		"op": "star", "hypothesis": 1, "starred": true,
	}, nil), http.StatusCreated)

	// Restart 2: the journal must hold header + add + star, nothing torn.
	s2, ts2 := newJournaledServer(t, dir)
	if restored, err := s2.RestoreSessions(); err != nil || restored != 1 {
		t.Fatalf("restart 2: restored %d, err %v", restored, err)
	}
	var gauge struct {
		Tests   int `json:"tests"`
		Starred int `json:"starred"`
	}
	wantStatus(t, doJSON(t, http.MethodGet, ts2.URL+"/v1/sessions/3/gauge", nil, &gauge), http.StatusOK)
	if gauge.Tests != 1 || gauge.Starred != 1 {
		t.Errorf("after two restarts: tests = %d, starred = %d; want 1, 1", gauge.Tests, gauge.Starred)
	}
}

// TestCreateSkipsIDsOfKeptJournals: a journal skipped during restore (its
// dataset is gone) must still reserve its ID, or a later create would
// truncate the preserved file.
func TestCreateSkipsIDsOfKeptJournals(t *testing.T) {
	dir := t.TempDir()
	kept := `{"dataset": "missing"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "session-2.jsonl"), []byte(kept), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newJournaledServer(t, dir)
	if restored, err := s.RestoreSessions(); err != nil || restored != 0 {
		t.Fatalf("restored %d, err %v", restored, err)
	}
	var info SessionInfo
	wantStatus(t, doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{"dataset": "census"}, &info), http.StatusCreated)
	if info.ID <= 2 {
		t.Errorf("new session got ID %d, must be past the kept journal's 2", info.ID)
	}
	data, err := os.ReadFile(filepath.Join(dir, "session-2.jsonl"))
	if err != nil || string(data) != kept {
		t.Errorf("kept journal was modified: %q, %v", data, err)
	}
}
