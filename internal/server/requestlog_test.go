package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"aware/internal/api"
	"aware/internal/census"
)

// logServer builds a server over a small census whose log goes to buf at the
// given level, with one session already created.
func logServer(t *testing.T, level slog.Level, buf *bytes.Buffer) *Server {
	t.Helper()
	s, err := New(Config{Logger: slog.New(slog.NewJSONHandler(buf, &slog.HandlerOptions{Level: level}))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	table, err := census.Generate(census.Config{Rows: 1000, Seed: 7, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().Register("census", table); err != nil {
		t.Fatal(err)
	}
	if rec := serve(s.Handler(), http.MethodPost, api.Prefix+"/sessions", `{"dataset": "census"}`); rec.Code != http.StatusCreated {
		t.Fatalf("create session: %d %s", rec.Code, rec.Body)
	}
	return s
}

// serve runs one request through h on a response recorder.
func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// logLines decodes buf's JSON log lines.
func logLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var lines []map[string]any
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		lines = append(lines, m)
	}
	return lines
}

const logTestStep = `{"op": "add_visualization", "target": "gender", "predicate": {"type": "equals", "column": "salary_over_50k", "value": "true"}}`

// TestRequestLogSilentAtInfo checks that at the default level a served
// request, read or step, writes nothing to the log.
func TestRequestLogSilentAtInfo(t *testing.T) {
	var buf bytes.Buffer
	s := logServer(t, slog.LevelInfo, &buf)
	buf.Reset()
	for _, req := range []struct{ method, path, body string }{
		{http.MethodPost, api.Prefix + "/sessions/1/steps", logTestStep},
		{http.MethodGet, api.Prefix + "/sessions/1/gauge", ""},
		{http.MethodGet, api.Prefix + "/sessions/1/report", ""},
		{http.MethodGet, "/no/such/route", ""},
	} {
		serve(s.Handler(), req.method, req.path, req.body)
	}
	if buf.Len() != 0 {
		t.Errorf("requests at Info wrote to the log:\n%s", buf.String())
	}
}

// TestRequestLogOneLineAtDebug checks that at Debug every request writes
// exactly one line carrying its method, path, status, bytes and duration.
func TestRequestLogOneLineAtDebug(t *testing.T) {
	var buf bytes.Buffer
	s := logServer(t, slog.LevelDebug, &buf)
	for _, req := range []struct {
		method, path, body string
		status             int
	}{
		{http.MethodGet, api.Prefix + "/sessions/1/gauge", "", http.StatusOK},
		{http.MethodPost, api.Prefix + "/sessions/1/steps", logTestStep, http.StatusCreated},
		{http.MethodDelete, api.Prefix + "/sessions/1/gauge", "", http.StatusMethodNotAllowed},
	} {
		buf.Reset()
		rec := serve(s.Handler(), req.method, req.path, req.body)
		var requests []map[string]any
		for _, line := range logLines(t, &buf) {
			if line["msg"] == "request" {
				requests = append(requests, line)
			}
		}
		if len(requests) != 1 {
			t.Fatalf("%s %s logged %d request lines, want 1:\n%s", req.method, req.path, len(requests), buf.String())
		}
		line := requests[0]
		if line["level"] != "DEBUG" || line["method"] != req.method || line["path"] != req.path {
			t.Errorf("request line %v, want a DEBUG line for %s %s", line, req.method, req.path)
		}
		if line["status"] != float64(req.status) || rec.Code != req.status {
			t.Errorf("%s %s: logged status %v, served %d, want %d", req.method, req.path, line["status"], rec.Code, req.status)
		}
		if line["bytes"] != float64(rec.Body.Len()) {
			t.Errorf("%s %s: logged %v bytes, served %d", req.method, req.path, line["bytes"], rec.Body.Len())
		}
		if d, ok := line["duration"].(float64); !ok || d <= 0 {
			t.Errorf("%s %s: duration %v", req.method, req.path, line["duration"])
		}
	}
}

// TestPanicLoggedAndEnveloped checks that a panicking handler, at the default
// level, still logs its Error line and answers the internal envelope with its
// Content-Length.
func TestPanicLoggedAndEnveloped(t *testing.T) {
	var buf bytes.Buffer
	s := logServer(t, slog.LevelInfo, &buf)
	buf.Reset()
	h := withRecovery(s.log, withRequestLog(s.log, withJSONErrors(s.metrics, s.instrument("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))))
	rec := serve(h, http.MethodGet, "/boom", "")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length %q, body is %d bytes", got, rec.Body.Len())
	}
	var env api.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Code != api.CodeInternal {
		t.Errorf("body %q, want the %q envelope", rec.Body, api.CodeInternal)
	}
	lines := logLines(t, &buf)
	if len(lines) != 1 || lines[0]["level"] != "ERROR" || lines[0]["msg"] != "panic in handler" || lines[0]["panic"] != "boom" {
		t.Errorf("panic logged %v, want one ERROR line", lines)
	}
}
