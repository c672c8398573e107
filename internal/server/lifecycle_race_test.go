package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aware/internal/census"
)

// TestConcurrentLifecycleWithSweeper is the load-shaped race test: many
// clients run full create→step→validate→destroy lifecycles over HTTP while
// the idle-TTL sweeper fires continuously with an aggressively short TTL, so
// expiry races live traffic. Clients must only ever observe clean outcomes —
// success, or a JSON 404 after the sweeper won the race — and once the
// clients stop, the sweeper must drain the manager to exactly zero sessions.
// Run with -race.
func TestConcurrentLifecycleWithSweeper(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	// 15ms TTL: long enough for most lifecycles, short enough that some
	// sessions expire mid-use on any scheduling hiccup.
	s, err := New(Config{Logger: logger, SessionTTL: 15 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	table, err := census.Generate(census.Config{Rows: 1500, Seed: 3, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().Register("census", table); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The sweeper, as Run would drive it but at test speed.
	stopSweep := make(chan struct{})
	var sweepWG sync.WaitGroup
	sweepWG.Add(1)
	go func() {
		defer sweepWG.Done()
		ticker := time.NewTicker(2 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stopSweep:
				return
			case <-ticker.C:
				s.Manager().SweepIdle()
			}
		}
	}()

	const clients = 8
	deadline := time.Now().Add(1 * time.Second)
	var lifecycles, expiries atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := lifecycle(ts.URL, c); err != nil {
					if errors.Is(err, errExpired) {
						expiries.Add(1)
						continue
					}
					t.Errorf("client %d: %v", c, err)
					return
				}
				lifecycles.Add(1)
			}
		}(c)
	}
	wg.Wait()
	close(stopSweep)
	sweepWG.Wait()

	if lifecycles.Load() == 0 {
		t.Fatal("no lifecycle completed; the TTL is too aggressive for the machine")
	}
	t.Logf("%d clean lifecycles, %d sweeper-won races", lifecycles.Load(), expiries.Load())

	// With traffic stopped, one sweep past the TTL must reclaim everything:
	// a session surviving here has a stuck activity clock — a leak.
	time.Sleep(30 * time.Millisecond)
	s.Manager().SweepIdle()
	if n := s.Manager().Len(); n != 0 {
		t.Fatalf("%d sessions leaked after the final sweep", n)
	}
}

// errExpired marks the benign race: the sweeper reclaimed the session between
// two of the client's requests.
var errExpired = errors.New("session expired mid-lifecycle")

// lifecycle drives one create→step→gauge→validate→destroy pass and
// classifies a 404 on an existing flow as the sweeper winning the race.
func lifecycle(base string, client int) error {
	var info SessionInfo
	if err := reqJSON(http.MethodPost, base+"/sessions", map[string]any{"dataset": "census"}, &info, http.StatusCreated); err != nil {
		return err
	}
	path := fmt.Sprintf("%s/sessions/%d", base, info.ID)
	step := map[string]any{
		"op":     "add_visualization",
		"target": "gender",
		"predicate": map[string]any{
			"type": "equals", "column": "education", "value": []string{"HS", "Bachelor", "Master"}[client%3],
		},
	}
	if err := reqJSON(http.MethodPost, path+"/steps", step, nil, http.StatusCreated); err != nil {
		return err
	}
	// Client 0 simulates a stalled analyst: it outlives the TTL mid-lifecycle
	// every time, so expiry provably races live traffic (its next request must
	// come back as a clean 404, counted as a sweeper win by the caller).
	if client == 0 {
		time.Sleep(25 * time.Millisecond)
	}
	if err := reqJSON(http.MethodGet, path+"/gauge", nil, nil, http.StatusOK); err != nil {
		return err
	}
	validate := map[string]any{
		"attribute": "age",
		"predicate": map[string]any{"type": "equals", "column": "gender", "value": "Female"},
	}
	if err := reqJSON(http.MethodPost, path+"/holdout/validate", validate, nil, http.StatusOK); err != nil {
		return err
	}
	// DELETE racing the sweeper: 204 and 404 are both clean.
	err := reqJSON(http.MethodDelete, path, nil, nil, http.StatusNoContent)
	if errors.Is(err, errExpired) {
		return nil
	}
	return err
}

// reqJSON issues one request, decodes a successful JSON response into out,
// and enforces the expected status — mapping 404s to errExpired, the benign
// race with the sweeper.
func reqJSON(method, url string, body, out any, want int) error {
	var reader io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		reader = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusNotFound && want != http.StatusNotFound {
		return errExpired
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d (body: %s)", method, url, resp.StatusCode, want, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("%s %s: decoding %q: %w", method, url, raw, err)
		}
	}
	return nil
}
