package api_test

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"aware/internal/api"
)

// TestWriteJSONFraming checks that consecutive responses from the pooled
// buffers carry exactly their own document, sized by Content-Length.
func TestWriteJSONFraming(t *testing.T) {
	for i, doc := range []any{
		map[string]string{"long": strings.Repeat("x", 100<<10)},
		api.Health{Status: "ok", Sessions: 3},
		api.ErrorBody{Error: "gone", Code: api.CodeSessionNotFound},
	} {
		rec := httptest.NewRecorder()
		api.WriteJSON(rec, http.StatusOK, doc)
		want, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.String(); got != string(want)+"\n" {
			t.Errorf("response %d: body %.80q, want %.80q", i, got, want)
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("response %d: Content-Length %q, body is %d bytes", i, got, rec.Body.Len())
		}
	}
}

// TestWriteJSONUnencodable checks that a document JSON cannot carry becomes
// the internal envelope rather than an empty 200.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	api.WriteJSON(rec, http.StatusOK, map[string]float64{"p": math.NaN()})
	var env api.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body %q: %v", rec.Body, err)
	}
	if rec.Code != http.StatusInternalServerError || env.Code != api.CodeInternal {
		t.Errorf("status %d code %q, want 500 %q", rec.Code, env.Code, api.CodeInternal)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length %q, body is %d bytes", got, rec.Body.Len())
	}
}
