package server

import (
	"io"
	"log/slog"
	"net/http"
	"testing"

	"aware/internal/api"
	"aware/internal/census"
)

// The TestAllocs tests pin the allocation counts of a served request, from
// Server.Handler().ServeHTTP down to the encoded response, at the default
// log level and with tracing on, as awared runs by default. Counts include
// building the request and its recorder. Each pin is the count measured when
// it was set plus 20 %, rounded up; they run without -race only.

// allocsServer is a server over a 10k-row census on a one-worker pool with one
// session holding one chart, so every filter the tests send is cached.
func allocsServer(t *testing.T) http.Handler {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are pinned without -race")
	}
	s, err := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil)), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	table, err := census.Generate(census.Config{Rows: 10000, Seed: 7, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().Register("census", table); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if rec := serve(h, http.MethodPost, api.Prefix+"/sessions", `{"dataset": "census"}`); rec.Code != http.StatusCreated {
		t.Fatalf("create session: %d %s", rec.Code, rec.Body)
	}
	if rec := serve(h, http.MethodPost, api.Prefix+"/sessions/1/steps", logTestStep); rec.Code != http.StatusCreated {
		t.Fatalf("step: %d %s", rec.Code, rec.Body)
	}
	return h
}

// pinServe fails when serving method path body allocates more than pin
// objects per request, averaged over runs requests after one warm-up.
func pinServe(t *testing.T, h http.Handler, method, path, body string, status int, runs int, pin float64) {
	t.Helper()
	got := testing.AllocsPerRun(runs, func() {
		if rec := serve(h, method, path, body); rec.Code != status {
			t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
		}
	})
	t.Logf("%s %s allocates %v objects per request", method, path, got)
	if got > pin {
		t.Errorf("%s %s allocates %v objects per request, pinned at %v", method, path, got, pin)
	}
}

func TestAllocsServeGauge(t *testing.T) {
	h := allocsServer(t)
	pinServe(t, h, http.MethodGet, api.Prefix+"/sessions/1/gauge", "", http.StatusOK, 50, 66) // measured 55
}

// TestAllocsServeCachedStep serves a chart whose filter bitmap the first
// chart already put in the dataset's selection cache.
func TestAllocsServeCachedStep(t *testing.T) {
	h := allocsServer(t)
	pinServe(t, h, http.MethodPost, api.Prefix+"/sessions/1/steps", logTestStep, http.StatusCreated, 20, 168) // measured 140
}
