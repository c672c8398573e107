package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"aware/internal/api"
)

// decodeErrorBody asserts the response is the structured JSON envelope with a
// non-empty "error" message, a non-empty machine-readable "code" and the right
// Content-Type, and returns the envelope.
func decodeErrorBody(t *testing.T, resp *http.Response) api.ErrorBody {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading error body: %v", err)
	}
	var body api.ErrorBody
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("error body is not JSON: %q: %v", raw, err)
	}
	if body.Error == "" {
		t.Errorf("error body has no message: %q", raw)
	}
	if body.Code == "" {
		t.Errorf("error body has no machine-readable code: %q", raw)
	}
	return body
}

// TestErrorResponsesAreJSON covers the error paths of every endpoint: unknown
// routes (404 from the mux), wrong methods (405 from the mux), malformed
// bodies and invalid path values (400s from the handlers), and missing
// sessions (handler 404s). Every one must produce an application/json envelope
// with an "error" message and the stable machine-readable "code" for that
// failure — clients and the cluster router dispatch on the code, so it is
// table-tested per endpoint here. API-surface cases run against their /v1
// path, and the same path without the prefix must be an unknown route.
func TestErrorResponsesAreJSON(t *testing.T) {
	_, ts := newTestServer(t)

	// A live session so the malformed-body cases get past routing.
	var info SessionInfo
	wantStatus(t, doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{"dataset": "census"}, &info), http.StatusCreated)

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   api.ErrorCode
	}{
		// Router-level 404s: no pattern matches the path.
		{"unknown root path", http.MethodGet, "/no/such/route", "", http.StatusNotFound, api.CodeNotFound},
		{"unknown session subresource", http.MethodGet, "/sessions/1/nope", "", http.StatusNotFound, api.CodeNotFound},

		// Router-level 404s: a step enters a session only through /steps, so
		// the typed step routes are unknown paths.
		{"no visualizations route", http.MethodPost, "/sessions/1/visualizations", `{"target": "gender"}`, http.StatusNotFound, api.CodeNotFound},
		{"no compare route", http.MethodPost, "/sessions/1/compare", `{"a": 1, "b": 2}`, http.StatusNotFound, api.CodeNotFound},
		{"no derive route", http.MethodPost, "/sessions/1/derive", `{"name": "x"}`, http.StatusNotFound, api.CodeNotFound},
		{"no join route", http.MethodPost, "/sessions/1/join", `{"dataset": "census"}`, http.StatusNotFound, api.CodeNotFound},
		{"no groupby route", http.MethodPost, "/sessions/1/groupby", `{"row": "gender"}`, http.StatusNotFound, api.CodeNotFound},
		{"no star route", http.MethodPost, "/sessions/1/hypotheses/1/star", `{"starred": true}`, http.StatusNotFound, api.CodeNotFound},

		// Router-level 405s: the path exists under another method.
		{"PUT sessions", http.MethodPut, "/sessions", "", http.StatusMethodNotAllowed, api.CodeMethodNotAllowed},
		{"GET steps", http.MethodGet, "/sessions/1/steps", "", http.StatusMethodNotAllowed, api.CodeMethodNotAllowed},
		{"DELETE gauge", http.MethodDelete, "/sessions/1/gauge", "", http.StatusMethodNotAllowed, api.CodeMethodNotAllowed},
		{"PATCH report", http.MethodPatch, "/sessions/1/report", "", http.StatusMethodNotAllowed, api.CodeMethodNotAllowed},

		// Handler-level 400s: malformed bodies on every decoding endpoint are
		// step_invalid (the body failed to decode into the endpoint's document).
		{"create session bad body", http.MethodPost, "/sessions", `{"not json`, http.StatusBadRequest, api.CodeStepInvalid},
		{"steps bad body", http.MethodPost, "/sessions/1/steps", `{"op": 42}`, http.StatusBadRequest, api.CodeStepInvalid},
		{"visualizations bad body", http.MethodPost, "/sessions/1/steps", `{"op": "add_visualization", "target": [`, http.StatusBadRequest, api.CodeStepInvalid},
		{"compare bad body", http.MethodPost, "/sessions/1/steps", `{"op": "compare_visualizations", "a": "x", "b": 2}`, http.StatusBadRequest, api.CodeStepInvalid},
		{"star bad body", http.MethodPost, "/sessions/1/steps", `{"op": "star", "hypothesis": 1, "starred": "yes"}`, http.StatusBadRequest, api.CodeStepInvalid},
		{"bad hypothesis id", http.MethodPost, "/sessions/1/steps", `{"op": "star", "hypothesis": "x", "starred": true}`, http.StatusBadRequest, api.CodeStepInvalid},
		{"steps unknown op", http.MethodPost, "/sessions/1/steps", `{"op": "warp"}`, http.StatusBadRequest, api.CodeStepInvalid},
		{"steps oversized body", http.MethodPost, "/sessions/1/steps", strings.Repeat(" ", maxUploadBytes+1), http.StatusBadRequest, api.CodeStepInvalid},
		{"steps trailing garbage", http.MethodPost, "/sessions/1/steps", `{"op": "declare_descriptive", "visualization": 1} trailing garbage`, http.StatusBadRequest, api.CodeStepInvalid},
		{"steps two steps", http.MethodPost, "/sessions/1/steps", `{"op": "declare_descriptive", "visualization": 1}{"op": "declare_descriptive", "visualization": 2}`, http.StatusBadRequest, api.CodeStepInvalid},
		{"create session two bodies", http.MethodPost, "/sessions", `{"dataset": "census"} {"dataset": "census"}`, http.StatusBadRequest, api.CodeStepInvalid},
		{"holdout validate bad body", http.MethodPost, "/sessions/1/holdout/validate", `nope`, http.StatusBadRequest, api.CodeStepInvalid},
		{"holdout replay bad body", http.MethodPost, "/sessions/1/holdout/replay", `"`, http.StatusBadRequest, api.CodeStepInvalid},
		{"restore bad body", http.MethodPost, "/sessions/1/restore", `{`, http.StatusBadRequest, api.CodeStepInvalid},

		// Handler-level 400s: well-formed requests with client-shaped faults.
		{"upload dataset without name", http.MethodPost, "/datasets", "a,b\n1,2\n", http.StatusBadRequest, api.CodeBadRequest},
		{"holdout validate no attribute", http.MethodPost, "/sessions/1/holdout/validate", `{}`, http.StatusBadRequest, api.CodeBadRequest},
		{"bad session id", http.MethodGet, "/sessions/abc", "", http.StatusBadRequest, api.CodeBadRequest},

		// Handler-level 404s: valid shape, missing resources. session_not_found
		// vs dataset_unknown vs hypothesis_not_found matter to the router: only
		// session_not_found can mean "wrong replica".
		{"missing session", http.MethodGet, "/sessions/999999", "", http.StatusNotFound, api.CodeSessionNotFound},
		{"missing session delete", http.MethodDelete, "/sessions/999999", "", http.StatusNotFound, api.CodeSessionNotFound},
		{"missing session gauge", http.MethodGet, "/sessions/999999/gauge", "", http.StatusNotFound, api.CodeSessionNotFound},
		{"missing hypothesis star", http.MethodPost, "/sessions/1/steps", `{"op": "star", "hypothesis": 999, "starred": true}`, http.StatusNotFound, api.CodeHypothesisNotFound},
		{"missing viz compare", http.MethodPost, "/sessions/1/steps", `{"op": "compare_visualizations", "a": 998, "b": 999}`, http.StatusNotFound, api.CodeVizNotFound},
		{"unknown dataset", http.MethodPost, "/sessions", `{"dataset": "nope"}`, http.StatusNotFound, api.CodeDatasetUnknown},

		// Conflict: restoring onto a live session ID.
		{"restore onto live session", http.MethodPost, "/sessions/1/restore", `{"spec": {"dataset": "census"}}`, http.StatusConflict, api.CodeSessionExists},
	}
	for _, tc := range cases {
		if !strings.HasPrefix(tc.path, "/sessions") && !strings.HasPrefix(tc.path, "/datasets") {
			t.Run(tc.name, func(t *testing.T) {
				checkErrorResponse(t, tc.method, ts.URL+tc.path, tc.body, tc.status, tc.code)
			})
			continue
		}
		// Every API-surface error contract holds on the /v1 route, and the
		// unprefixed path is no route at all.
		t.Run(tc.name+" (v1)", func(t *testing.T) {
			checkErrorResponse(t, tc.method, ts.URL+api.Prefix+tc.path, tc.body, tc.status, tc.code)
		})
		t.Run(tc.name, func(t *testing.T) {
			checkErrorResponse(t, tc.method, ts.URL+tc.path, "", http.StatusNotFound, api.CodeNotFound)
		})
	}
}

// checkErrorResponse sends one request and requires the given status and
// error envelope.
func checkErrorResponse(t *testing.T, method, url, body string, status int, code api.ErrorCode) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s %s: status %d, want %d (body: %s)", method, url, resp.StatusCode, status, raw)
	}
	envelope := decodeErrorBody(t, resp)
	if envelope.Code != code {
		t.Errorf("%s %s: code %q, want %q (message: %s)", method, url, envelope.Code, code, envelope.Error)
	}
	if envelope.Code == api.CodeNodeUnavailable {
		t.Errorf("%s %s: single-node server emitted retryable code %q; only the router may", method, url, envelope.Code)
	}
}

// TestMethodNotAllowedKeepsAllowHeader checks that converting the mux's 405
// to JSON preserves the Allow header the mux computed.
func TestMethodNotAllowedKeepsAllowHeader(t *testing.T) {
	_, ts := newTestServer(t)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, http.MethodGet) {
		t.Errorf("Allow = %q, want it to include GET", allow)
	}
	if envelope := decodeErrorBody(t, resp); envelope.Code != api.CodeMethodNotAllowed {
		t.Errorf("code = %q, want %q", envelope.Code, api.CodeMethodNotAllowed)
	}
}
