package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"aware/internal/api"
	"aware/internal/core"
)

// journalSteps returns the step lines of a session's journal: every line
// after the header.
func journalSteps(t *testing.T, dir string, id int64) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("session-%d.jsonl", id)))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	return lines[1:]
}

// logSteps returns MarshalStep of every entry of a session's /log.
func logSteps(t *testing.T, base string) []string {
	t.Helper()
	var log struct {
		Steps []core.AppliedStep `json:"steps"`
	}
	wantStatus(t, doJSON(t, http.MethodGet, base+"/log", nil, &log), http.StatusOK)
	out := make([]string, len(log.Steps))
	for i, e := range log.Steps {
		line, err := core.MarshalStep(e.Step)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(line)
	}
	return out
}

// TestRestoreRacingStepsKeepLogAndJournalEqual restores a 200-step log to a
// fresh ID while a goroutine posts steps to that ID. A racing step must meet
// either no session (404) or one whose journal already holds the header and
// every restored step (201): never a 500, and in every trial the journal's
// step lines are the session's /log, line for line. Run with -race.
func TestRestoreRacingStepsKeepLogAndJournalEqual(t *testing.T) {
	dir := t.TempDir()
	_, ts := newJournaledServer(t, dir)
	// A chart with no filter is descriptive: it spends no wealth, so any
	// number of them applies.
	const step = `{"op": "add_visualization", "target": "gender"}`
	const trials, restored, after = 20, 200, 3
	steps := make([]json.RawMessage, restored)
	for i := range steps {
		steps[i] = json.RawMessage(step)
	}
	body, err := json.Marshal(api.RestoreSessionRequest{Spec: api.SessionSpec{Dataset: "census"}, Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < trials; trial++ {
		id := int64(100 + trial)
		base := fmt.Sprintf("%s/v1/sessions/%d", ts.URL, id)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		// The racer posts until `after` of its steps have landed, or the
		// restore failed.
		go func() {
			defer wg.Done()
			landed := 0
			for landed < after {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(base+"/steps", "application/json", strings.NewReader(step))
				if err != nil {
					t.Error(err)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var env api.ErrorBody
				switch {
				case resp.StatusCode == http.StatusCreated:
					landed++
				case resp.StatusCode == http.StatusNotFound && json.Unmarshal(raw, &env) == nil && env.Code == api.CodeSessionNotFound:
				default:
					t.Errorf("trial %d: racing step answered %d: %s", trial, resp.StatusCode, raw)
					return
				}
			}
		}()
		resp, err := http.Post(base+"/restore", "application/json", bytes.NewReader(body))
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			close(stop)
			wg.Wait()
			t.Fatalf("trial %d: restore answered %d: %s", trial, resp.StatusCode, raw)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		journal, log := journalSteps(t, dir, id), logSteps(t, base)
		if len(log) < restored+after {
			t.Fatalf("trial %d: /log holds %d steps, want at least %d", trial, len(log), restored+after)
		}
		if len(journal) != len(log) {
			t.Fatalf("trial %d: the journal holds %d steps, /log %d", trial, len(journal), len(log))
		}
		for i := range log {
			if journal[i] != log[i] {
				t.Fatalf("trial %d: step %d: journal %s, /log %s", trial, i+1, journal[i], log[i])
			}
		}
	}
}

// TestThreeRoutesOpenOneSession opens one spec and step list three ways —
// created and then stepped, restored through the API, and restarted from the
// restored session's journal — and applies one more step to each. All three
// leave byte-identical journals, the same /log, and the same gauge, wealth
// bits included.
func TestThreeRoutesOpenOneSession(t *testing.T) {
	spec := api.SessionSpec{Dataset: "census", Policy: "gamma-fixed"}
	steps := []string{
		`{"op": "add_visualization", "target": "gender", "predicate": ` + highEarners + `}`,
		`{"op": "add_visualization", "target": "gender"}`,
		`{"op": "compare_visualizations", "a": 1, "b": 2}`,
		`{"op": "add_visualization", "target": "occupation", "predicate": ` + graduates + `}`,
		`{"op": "star", "hypothesis": 1, "starred": true}`,
		`{"op": "group_by", "row": "education", "col": "gender", "predicate": ` + highEarners + `}`,
	}
	const last = `{"op": "compare_means", "attribute": "age", "a": 1, "b": 2}`
	post := func(url, body string) {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST %s: %d: %s", url, resp.StatusCode, raw)
		}
	}

	// Created, then stepped.
	createdDir := t.TempDir()
	_, created := newJournaledServer(t, createdDir)
	var info SessionInfo
	wantStatus(t, doJSON(t, http.MethodPost, created.URL+"/v1/sessions", spec, &info), http.StatusCreated)
	base := fmt.Sprintf("/v1/sessions/%d", info.ID)
	for _, step := range steps {
		post(created.URL+base+"/steps", step)
	}

	// Restored through the API under the same ID.
	restoredDir := t.TempDir()
	_, restored := newJournaledServer(t, restoredDir)
	req := api.RestoreSessionRequest{Spec: spec}
	for _, step := range steps {
		req.Steps = append(req.Steps, json.RawMessage(step))
	}
	wantStatus(t, doJSON(t, http.MethodPost, restored.URL+base+"/restore", req, nil), http.StatusCreated)

	// Restarted from the restored session's journal.
	restartedDir := t.TempDir()
	name := fmt.Sprintf("session-%d.jsonl", info.ID)
	data, err := os.ReadFile(filepath.Join(restoredDir, name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(restartedDir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, restarted := newJournaledServer(t, restartedDir)
	if n, err := s.RestoreSessions(); err != nil || n != 1 {
		t.Fatalf("RestoreSessions = %d, %v; want 1", n, err)
	}

	type route struct {
		name, url, dir string
	}
	routes := []route{{"created", created.URL, createdDir}, {"restored", restored.URL, restoredDir}, {"restarted", restarted.URL, restartedDir}}
	var journals, logs, gauges []string
	var wealth []uint64
	for _, r := range routes {
		post(r.url+base+"/steps", last)
		data, err := os.ReadFile(filepath.Join(r.dir, name))
		if err != nil {
			t.Fatal(err)
		}
		journals = append(journals, string(data))
		logs = append(logs, strings.Join(logSteps(t, r.url+base), "\n"))
		var gauge api.Gauge
		resp := doJSON(t, http.MethodGet, r.url+base+"/gauge", nil, &gauge)
		wantStatus(t, resp, http.StatusOK)
		raw, _ := io.ReadAll(resp.Body)
		gauges = append(gauges, string(raw))
		wealth = append(wealth, math.Float64bits(gauge.RemainingWealth))
	}
	if n := strings.Count(journals[0], "\n"); n != 1+len(steps)+1 {
		t.Fatalf("the created session's journal has %d lines, want %d:\n%s", n, 1+len(steps)+1, journals[0])
	}
	for i, r := range routes[1:] {
		if journals[i+1] != journals[0] {
			t.Errorf("%s journal differs from the created one:\n%s\nvs\n%s", r.name, journals[i+1], journals[0])
		}
		if logs[i+1] != logs[0] {
			t.Errorf("%s /log differs from the created one:\n%s\nvs\n%s", r.name, logs[i+1], logs[0])
		}
		if gauges[i+1] != gauges[0] || wealth[i+1] != wealth[0] {
			t.Errorf("%s gauge differs from the created one:\n%s\nvs\n%s", r.name, gauges[i+1], gauges[0])
		}
	}
}
