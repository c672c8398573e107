package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aware/internal/census"
	"aware/internal/obs"
)

// addVizStep posts one filtered-visualization step — the request whose trace
// must reach kernel depth.
func addVizStep(t *testing.T, base, sessionPath string) {
	t.Helper()
	doJSON(t, http.MethodPost, base+sessionPath+"/steps", map[string]any{
		"op":     "add_visualization",
		"target": census.ColGender,
		"predicate": map[string]any{
			"type": "equals", "column": census.ColSalaryOver50K, "value": "true",
		},
	}, nil)
}

// addHoursVizStep charts a numeric attribute under a numeric filter: the
// filter byte-encodes age, the binning hours_per_week.
func addHoursVizStep(t *testing.T, base, sessionPath string) {
	t.Helper()
	doJSON(t, http.MethodPost, base+sessionPath+"/steps", map[string]any{
		"op":     "add_visualization",
		"target": census.ColHoursPerWeek,
		"predicate": map[string]any{
			"type": "range", "column": census.ColAge, "low": 30, "high": 45,
		},
	}, nil)
}

// createSession opens a census session and returns its path.
func createSession(t *testing.T, base string) string {
	t.Helper()
	var info struct {
		ID int64 `json:"id"`
	}
	doJSON(t, http.MethodPost, base+"/sessions", map[string]any{"dataset": "census"}, &info)
	return fmt.Sprintf("/sessions/%d", info.ID)
}

// TestPromMetricsExposition drives real traffic, scrapes GET /metrics and
// validates the exposition with the same strict parser the CI gate uses —
// then checks every family the dashboard relies on is present.
func TestPromMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t)
	path := createSession(t, ts.URL)
	addVizStep(t, ts.URL, path)
	addHoursVizStep(t, ts.URL, path)
	doJSON(t, http.MethodGet, ts.URL+path+"/gauge", nil, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 text exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	samples, err := obs.ValidateExposition(text)
	if err != nil {
		t.Fatalf("exposition does not validate: %v\n%s", err, text)
	}
	if samples == 0 {
		t.Fatal("exposition has no samples")
	}
	for _, family := range []string{
		"aware_build_info",
		"aware_uptime_seconds",
		"aware_sessions_live",
		"aware_http_requests_total",
		"aware_http_errors_total",
		"aware_http_in_flight",
		"aware_http_request_duration_seconds_bucket",
		"aware_http_request_duration_seconds_count",
		"aware_http_unrouted_total",
		"aware_selection_cache_hits_total",
		"aware_selection_cache_entries",
		"aware_dataset_refstats_total",
		"aware_dataset_encoded_columns",
		"aware_dataset_encoded_bytes",
		"aware_pool_workers",
		"aware_pool_morsels_total",
		"aware_pool_queue_wait_seconds_total",
		"aware_trace_captured_total",
		"aware_trace_ring_capacity",
		"aware_slow_ops_total",
	} {
		if !strings.Contains(text, "\n"+family) {
			t.Errorf("exposition is missing %s", family)
		}
	}
	// The chart steps above filled the census table's reference-statistics
	// memo and then read it again: one scan of the categorical target, one
	// byte dictionary each for the filtered and the binned numeric column
	// (2,000 rows, a byte per row), one binning.
	for _, sample := range []string{
		`aware_dataset_refstats_total{dataset="census",result="computed"} 4`,
		`aware_dataset_refstats_total{dataset="census",result="hit"} `,
		`aware_dataset_encoded_columns{dataset="census"} 2`,
		`aware_dataset_encoded_bytes{dataset="census"} 4000`,
	} {
		if !strings.Contains(text, "\n"+sample) {
			t.Errorf("exposition is missing %s", sample)
		}
	}
	// The steps endpoint must have landed in the latency histogram.
	if !strings.Contains(text, `aware_http_request_duration_seconds_bucket{endpoint="POST /sessions/{id}/steps",le="+Inf"}`) {
		t.Error("steps endpoint missing from the latency histogram")
	}
}

// TestDebugTraceReachesKernelDepth applies a step and asserts its captured
// trace is the full request→step→kernel tree, with kernel spans carrying the
// execution-engine annotations (rows, morsel deltas, cache outcome).
func TestDebugTraceReachesKernelDepth(t *testing.T) {
	_, ts := newTestServer(t)
	path := createSession(t, ts.URL)
	addVizStep(t, ts.URL, path)

	var resp struct {
		Capacity int            `json:"capacity"`
		Captured uint64         `json:"captured"`
		Returned int            `json:"returned"`
		Traces   []obs.SpanJSON `json:"traces"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/debug/trace?endpoint=POST+/sessions/{id}/steps", nil, &resp)
	if resp.Returned != 1 || len(resp.Traces) != 1 {
		t.Fatalf("returned %d step traces, want 1 (captured %d)", resp.Returned, resp.Captured)
	}
	root := resp.Traces[0]
	if root.Kind != obs.KindRequest || root.Name != "POST /sessions/{id}/steps" || root.DurationMs <= 0 {
		t.Fatalf("root span = %+v", root)
	}
	if root.Attrs["status"] != float64(http.StatusCreated) {
		t.Errorf("root status attr = %v, want 201", root.Attrs["status"])
	}
	var step *obs.SpanJSON
	for i := range root.Children {
		if root.Children[i].Kind == obs.KindStep {
			step = &root.Children[i]
		}
	}
	if step == nil {
		t.Fatalf("no step span under the request: %+v", root.Children)
	}
	if step.Name != "step.add_visualization" || step.Attrs["p_value"] == nil {
		t.Errorf("step span = %+v", step)
	}
	kernels := map[string]obs.SpanJSON{}
	var countSources []any
	for _, k := range step.Children {
		if k.Kind == obs.KindKernel {
			kernels[k.Name] = k
			if k.Name == "view.counts_for" {
				countSources = append(countSources, k.Attrs["source"])
			}
		}
	}
	if len(kernels) == 0 {
		t.Fatalf("no kernel spans under the step: %+v", step.Children)
	}
	cw, ok := kernels["cache.where"]
	if !ok {
		t.Fatalf("no cache.where kernel span: %v", kernels)
	}
	if cw.Attrs["cache"] == nil || cw.Attrs["rows"] != float64(2000) {
		t.Errorf("cache.where annotations = %+v", cw.Attrs)
	}
	if _, ok := cw.Attrs["morsels"]; !ok {
		t.Errorf("cache.where has no morsel delta: %+v", cw.Attrs)
	}
	// The filtered side scans its selected rows; the population side reads
	// the table's reference-statistics memo.
	if len(countSources) != 2 || countSources[0] != "scan" || countSources[1] != "memo" {
		t.Errorf("view.counts_for sources = %v, want [scan memo]", countSources)
	}

	// A numeric chart bins through the column's byte codes, and says so.
	addHoursVizStep(t, ts.URL, path)
	doJSON(t, http.MethodGet, ts.URL+"/debug/trace?endpoint=POST+/sessions/{id}/steps&limit=1", nil, &resp)
	if len(resp.Traces) != 1 {
		t.Fatalf("returned %d traces for limit=1", len(resp.Traces))
	}
	binSpans := 0
	var walk func(sp obs.SpanJSON)
	walk = func(sp obs.SpanJSON) {
		if sp.Name == "view.bin_counts" {
			binSpans++
			if sp.Attrs["encoding"] != "byte" || sp.Attrs["source"] == nil {
				t.Errorf("view.bin_counts annotations = %+v, want encoding=byte next to source", sp.Attrs)
			}
		}
		for _, child := range sp.Children {
			walk(child)
		}
	}
	walk(resp.Traces[0])
	if binSpans != 2 {
		t.Errorf("numeric chart recorded %d view.bin_counts spans, want 2 (filter and population)", binSpans)
	}

	// The numeric tests read each sample as counts over the column's byte
	// codes: one view.moments kernel per side under compare_means and
	// compare_distributions, two under each half of a hold-out validation,
	// and no gather (view.floats) anywhere.
	momentSpans := func(endpoint string, want int, body map[string]any) {
		t.Helper()
		doJSON(t, http.MethodPost, ts.URL+path+endpoint, body, nil)
		doJSON(t, http.MethodGet, ts.URL+"/debug/trace?endpoint=POST+/sessions/{id}"+endpoint+"&limit=1", nil, &resp)
		if len(resp.Traces) != 1 {
			t.Fatalf("%s: returned %d traces for limit=1", endpoint, len(resp.Traces))
		}
		spans := 0
		var walk func(parent string, sp obs.SpanJSON)
		walk = func(parent string, sp obs.SpanJSON) {
			switch sp.Name {
			case "view.moments":
				spans++
				a := sp.Attrs
				if a["column"] != census.ColHoursPerWeek || a["encoding"] != "byte" || a["distinct"] == nil ||
					a["rows"] == nil || a["selected"] == nil || a["morsels"] == nil {
					t.Errorf("%s: view.moments annotations = %+v", endpoint, a)
				}
				if endpoint != "/steps" && parent != "holdout.compare_means" {
					t.Errorf("%s: view.moments under %q, want a hold-out half", endpoint, parent)
				}
			case "view.floats":
				t.Errorf("%s: a view.floats span under %q", endpoint, parent)
			}
			for _, child := range sp.Children {
				walk(sp.Name, child)
			}
		}
		walk("", resp.Traces[0])
		if spans != want {
			t.Errorf("%s: %d view.moments spans in the last trace, want %d", endpoint, spans, want)
		}
	}
	momentSpans("/steps", 2, map[string]any{"op": "compare_means", "attribute": census.ColHoursPerWeek, "a": 1, "b": 2})
	momentSpans("/steps", 2, map[string]any{"op": "compare_distributions", "attribute": census.ColHoursPerWeek, "a": 1, "b": 2})
	momentSpans("/holdout/validate", 4, map[string]any{
		"attribute": census.ColHoursPerWeek,
		"predicate": map[string]any{"type": "equals", "column": census.ColSalaryOver50K, "value": "true"},
	})

	// Filters: an impossible min_ms excludes everything; bad values are 400s.
	doJSON(t, http.MethodGet, ts.URL+"/debug/trace?min_ms=1e9", nil, &resp)
	if resp.Returned != 0 {
		t.Errorf("min_ms=1e9 still returned %d traces", resp.Returned)
	}
	for _, q := range []string{"?min_ms=-1", "?min_ms=abc", "?limit=-2", "?limit=x"} {
		r, err := http.Get(ts.URL + "/debug/trace" + q)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /debug/trace%s = %d, want 400", q, r.StatusCode)
		}
	}
}

// TestTracingDisabled runs a server with a negative trace capacity: requests
// must work untraced, /debug/trace serves an empty ring, and the metrics
// exposition still validates.
func TestTracingDisabled(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	s, err := New(Config{Logger: logger, TraceCapacity: -1})
	if err != nil {
		t.Fatal(err)
	}
	table, err := census.Generate(census.Config{Rows: 1000, Seed: 7, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().Register("census", table); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	path := createSession(t, ts.URL)
	addVizStep(t, ts.URL, path)

	var resp struct {
		Capacity int             `json:"capacity"`
		Captured uint64          `json:"captured"`
		Traces   json.RawMessage `json:"traces"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/debug/trace", nil, &resp)
	if resp.Capacity != 0 || resp.Captured != 0 {
		t.Errorf("disabled tracer captured: %+v", resp)
	}
	body, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer body.Body.Close()
	text, _ := io.ReadAll(body.Body)
	if _, err := obs.ValidateExposition(string(text)); err != nil {
		t.Errorf("exposition with tracing off does not validate: %v", err)
	}
}

// TestSlowOpLogging runs with a 1ns threshold so every request is slow, and
// checks the structured warning carries the span tree.
func TestSlowOpLogging(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(lockedWriter{mu: &mu, w: &buf}, nil))
	s, err := New(Config{Logger: logger, SlowOp: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	table, err := census.Generate(census.Config{Rows: 1000, Seed: 7, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().Register("census", table); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	path := createSession(t, ts.URL)
	addVizStep(t, ts.URL, path)

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	found := false
	for _, line := range lines {
		var entry struct {
			Msg    string `json:"msg"`
			SlowOp struct {
				Kind  string       `json:"kind"`
				Name  string       `json:"name"`
				Trace obs.SpanJSON `json:"trace"`
			} `json:"slow_op"`
		}
		if json.Unmarshal([]byte(line), &entry) != nil || entry.Msg != "slow operation" {
			continue
		}
		if entry.SlowOp.Kind == "request" && entry.SlowOp.Name == "POST /sessions/{id}/steps" {
			found = true
			if len(entry.SlowOp.Trace.Children) == 0 {
				t.Errorf("slow-op line has no span tree: %s", line)
			}
		}
	}
	if !found {
		t.Errorf("no slow-op line for the steps request in:\n%s", strings.Join(lines, "\n"))
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestPprofGating checks the profiling endpoints are absent by default and
// present with EnablePprof.
func TestPprofGating(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without EnablePprof = %d, want 404", resp.StatusCode)
	}

	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	s, err := New(Config{Logger: logger, EnablePprof: true})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s.Handler())
	t.Cleanup(ts2.Close)
	resp2, err := http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("pprof with EnablePprof = %d, want 200", resp2.StatusCode)
	}
}

// TestConcurrentTracedSessions is the race-detector workout the issue asks
// for: several analysts apply traced steps concurrently while a scraper reads
// /debug/trace and /metrics. Afterwards every captured step trace must be a
// complete request→step→kernel tree and the ring must not exceed its
// capacity.
func TestConcurrentTracedSessions(t *testing.T) {
	s, ts := newTestServer(t)
	const analysts = 4
	const stepsEach = 3

	var wg sync.WaitGroup
	for a := 0; a < analysts; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			path := createSession(t, ts.URL)
			for i := 0; i < stepsEach; i++ {
				addVizStep(t, ts.URL, path)
			}
			doJSON(t, http.MethodDelete, ts.URL+path, nil, nil)
		}()
	}
	// A concurrent scraper: the reads must be race-free against captures.
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for i := 0; i < 20; i++ {
			if r, err := http.Get(ts.URL + "/debug/trace"); err == nil {
				io.Copy(io.Discard, r.Body)
				r.Body.Close()
			}
			if r, err := http.Get(ts.URL + "/metrics"); err == nil {
				io.Copy(io.Discard, r.Body)
				r.Body.Close()
			}
		}
	}()
	wg.Wait()
	<-scrapeDone

	stats := s.Tracer().Stats()
	if stats.Capacity != obs.DefaultTraceCapacity {
		t.Errorf("capacity = %d, want the default %d", stats.Capacity, obs.DefaultTraceCapacity)
	}
	// Every analyst's traffic plus the scraper's own requests were captured.
	minCaptured := uint64(analysts * (stepsEach + 2))
	if stats.Captured < minCaptured {
		t.Errorf("captured = %d, want >= %d", stats.Captured, minCaptured)
	}

	var resp struct {
		Returned int            `json:"returned"`
		Traces   []obs.SpanJSON `json:"traces"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/debug/trace?endpoint=POST+/sessions/{id}/steps", nil, &resp)
	if want := analysts * stepsEach; resp.Returned != want {
		t.Fatalf("returned %d step traces, want %d", resp.Returned, want)
	}
	if resp.Returned > stats.Capacity {
		t.Errorf("ring returned more traces than its capacity: %d > %d", resp.Returned, stats.Capacity)
	}
	for _, root := range resp.Traces {
		if root.DurationMs <= 0 {
			t.Errorf("unfinished root in ring: %+v", root)
		}
		var step *obs.SpanJSON
		for i := range root.Children {
			if root.Children[i].Kind == obs.KindStep {
				step = &root.Children[i]
			}
		}
		if step == nil {
			t.Errorf("step trace without a step span: %+v", root)
			continue
		}
		kernels := 0
		for _, k := range step.Children {
			if k.Kind == obs.KindKernel {
				kernels++
			}
		}
		if kernels == 0 {
			t.Errorf("step span without kernel children: %+v", step)
		}
	}
}
