package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"aware/internal/api"
	"aware/internal/obs"
)

// This file is the server end of the observability layer: the instrument
// wrapper that opens one root span per routed request (and records its
// latency into the endpoint's counters and histogram), the Prometheus text
// exposition at GET /metrics, and the trace ring at GET /debug/trace.

// instrument wraps a handler with the pattern's counters and a request-scoped
// trace: in-flight gauge up for the duration of the call; a root span opened
// on the tracer and propagated via the request context so steps and kernels
// can attach to it; status, latency (counters + histogram), span capture and
// the slow-op check on the way out — also when the handler panics (the
// recovery middleware turns the panic into a 500 further out, so the
// panicking request is recorded, captured and slow-logged as one).
func (s *Server) instrument(pattern string, next http.HandlerFunc) http.HandlerFunc {
	st := s.metrics.register(pattern)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		span := s.tracer.Start(pattern)
		if span != nil {
			span.Set("method", r.Method)
			span.Set("path", r.URL.Path)
			r = r.WithContext(obs.ContextWithSpan(r.Context(), span))
		}
		st.inFlight.Add(1)
		completed := false
		defer func() {
			st.inFlight.Add(-1)
			status := rec.status
			if !completed && status == 0 {
				status = http.StatusInternalServerError
			}
			if status == 0 {
				status = http.StatusOK
			}
			elapsed := time.Since(start)
			st.record(status, elapsed)
			span.Set("status", status)
			span.End()
			s.slow.Observe("request", pattern, elapsed, span)
		}()
		next(rec, r)
		completed = true
	}
}

// handlePromMetrics serves GET /metrics: the Prometheus text exposition of
// every counter the server keeps — per-endpoint requests, errors, in-flight
// and latency histograms; unrouted requests; per-dataset selection-cache
// and reference-statistics counters; the execution pool; the trace ring; the
// slow-op log; build info and uptime. Families and label sets are emitted in sorted order, so the
// output is deterministic for a fixed counter state.
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	var ew obs.ExpositionWriter

	ew.Header("aware_build_info", "Build metadata of the running binary; always 1.", "gauge")
	ew.Sample("aware_build_info", obs.L{
		obs.Label("go_version", s.build.GoVersion),
		obs.Label("revision", s.build.ShortRev()),
		obs.Label("version", s.build.Version),
	}, 1)

	now := s.now()
	ew.Header("aware_uptime_seconds", "Seconds since the server started.", "gauge")
	ew.Sample("aware_uptime_seconds", nil, now.Sub(s.metrics.startedAt).Seconds())
	ew.Header("aware_sessions_live", "Live exploration sessions.", "gauge")
	ew.Sample("aware_sessions_live", nil, float64(s.manager.Len()))
	ew.Header("aware_datasets", "Registered datasets.", "gauge")
	ew.Sample("aware_datasets", nil, float64(len(s.registry.List())))

	// Per-endpoint series, keyed by route pattern, in sorted pattern order.
	s.metrics.mu.Lock()
	patterns := make([]string, 0, len(s.metrics.endpoints))
	for pattern := range s.metrics.endpoints {
		patterns = append(patterns, pattern)
	}
	s.metrics.mu.Unlock()
	sort.Strings(patterns)

	ew.Header("aware_http_requests_total", "Requests served, by route pattern.", "counter")
	for _, p := range patterns {
		st := s.metrics.endpoints[p]
		ew.Sample("aware_http_requests_total", obs.L{obs.Label("endpoint", p)}, float64(st.requests.Load()))
	}
	ew.Header("aware_http_errors_total", "Error responses, by route pattern and status class.", "counter")
	for _, p := range patterns {
		st := s.metrics.endpoints[p]
		ew.Sample("aware_http_errors_total", obs.L{obs.Label("endpoint", p), obs.Label("class", "4xx")}, float64(st.errors4xx.Load()))
		ew.Sample("aware_http_errors_total", obs.L{obs.Label("endpoint", p), obs.Label("class", "5xx")}, float64(st.errors5xx.Load()))
	}
	ew.Header("aware_http_in_flight", "Requests currently being served, by route pattern.", "gauge")
	for _, p := range patterns {
		st := s.metrics.endpoints[p]
		ew.Sample("aware_http_in_flight", obs.L{obs.Label("endpoint", p)}, float64(st.inFlight.Load()))
	}
	ew.Header("aware_http_request_duration_seconds", "Request latency, by route pattern.", "histogram")
	for _, p := range patterns {
		st := s.metrics.endpoints[p]
		ew.Hist("aware_http_request_duration_seconds", obs.L{obs.Label("endpoint", p)}, st.latency.Snapshot())
	}

	ew.Header("aware_http_unrouted_total", "Requests the router rejected before any handler, by reason.", "counter")
	ew.Sample("aware_http_unrouted_total", obs.L{obs.Label("reason", "not_found")}, float64(s.metrics.notFound.Load()))
	ew.Sample("aware_http_unrouted_total", obs.L{obs.Label("reason", "method_not_allowed")}, float64(s.metrics.methodNotAllowed.Load()))
	ew.Sample("aware_http_unrouted_total", obs.L{obs.Label("reason", "other")}, float64(s.metrics.otherUnrouted.Load()))

	// Per-dataset selection-cache series, in sorted dataset order (List is
	// already sorted by name).
	datasets := s.registry.List()
	ew.Header("aware_selection_cache_hits_total", "Filter-bitmap cache hits, by dataset.", "counter")
	type cacheRow struct {
		name                 string
		hits, misses         uint64
		entries, bytes       int
		refHits, refComputed uint64
	}
	rows := make([]cacheRow, 0, len(datasets))
	for _, info := range datasets {
		cache, err := s.registry.Cache(info.Name)
		if err != nil {
			continue
		}
		hits, _, misses := cache.Stats()
		refHits, refComputed := cache.Table().RefStats()
		rows = append(rows, cacheRow{name: info.Name, hits: hits, misses: misses, entries: cache.Len(),
			bytes: cache.Bytes(), refHits: refHits, refComputed: refComputed})
	}
	for _, row := range rows {
		ew.Sample("aware_selection_cache_hits_total", obs.L{obs.Label("dataset", row.name)}, float64(row.hits))
	}
	ew.Header("aware_selection_cache_misses_total", "Filter-bitmap cache misses, by dataset.", "counter")
	for _, row := range rows {
		ew.Sample("aware_selection_cache_misses_total", obs.L{obs.Label("dataset", row.name)}, float64(row.misses))
	}
	ew.Header("aware_selection_cache_entries", "Cached filter bitmaps, by dataset.", "gauge")
	for _, row := range rows {
		ew.Sample("aware_selection_cache_entries", obs.L{obs.Label("dataset", row.name)}, float64(row.entries))
	}
	ew.Header("aware_selection_cache_bytes", "Bitmap and key bytes of the cached filter bitmaps, by dataset: the quantity the cache's byte budget bounds.", "gauge")
	for _, row := range rows {
		ew.Sample("aware_selection_cache_bytes", obs.L{obs.Label("dataset", row.name)}, float64(row.bytes))
	}

	ew.Header("aware_dataset_refstats_total", "Reference-statistics lookups (category lists, full-table counts, bin assignments, bit planes), by dataset: answered from the table's memo (hit) or by the column scan that filled it (computed).", "counter")
	for _, row := range rows {
		ew.Sample("aware_dataset_refstats_total", obs.L{obs.Label("dataset", row.name), obs.Label("result", "computed")}, float64(row.refComputed))
		ew.Sample("aware_dataset_refstats_total", obs.L{obs.Label("dataset", row.name), obs.Label("result", "hit")}, float64(row.refHits))
	}

	pool := s.pool.Stats()
	ew.Header("aware_pool_workers", "Execution pool parallelism (including the calling goroutine).", "gauge")
	ew.Sample("aware_pool_workers", nil, float64(pool.Workers))
	ew.Header("aware_pool_tasks_total", "Closures executed by background pool workers.", "counter")
	ew.Sample("aware_pool_tasks_total", nil, float64(pool.TasksExecuted))
	ew.Header("aware_pool_morsels_total", "Morsels processed by the parallel kernels.", "counter")
	ew.Sample("aware_pool_morsels_total", nil, float64(pool.MorselsProcessed))
	ew.Header("aware_pool_sequential_cutoff_total", "Kernel invocations that ran sequentially below the morsel cutoff.", "counter")
	ew.Sample("aware_pool_sequential_cutoff_total", nil, float64(pool.SequentialCutoffHits))
	ew.Header("aware_pool_helper_handoffs_total", "Helper closures accepted by an idle background worker.", "counter")
	ew.Sample("aware_pool_helper_handoffs_total", nil, float64(pool.HelperHandoffs))
	ew.Header("aware_pool_helper_rejections_total", "Helper handoffs rejected because every worker was busy.", "counter")
	ew.Sample("aware_pool_helper_rejections_total", nil, float64(pool.HelperRejections))
	ew.Header("aware_pool_queue_wait_seconds_total", "Cumulative delay between helper handoff and worker start.", "counter")
	ew.Sample("aware_pool_queue_wait_seconds_total", nil, float64(pool.QueueWaitNs)/1e9)

	trace := s.tracer.Stats()
	ew.Header("aware_trace_captured_total", "Request traces captured into the ring buffer.", "counter")
	ew.Sample("aware_trace_captured_total", nil, float64(trace.Captured))
	ew.Header("aware_trace_dropped_total", "Captured traces that overwrote an older ring entry.", "counter")
	ew.Sample("aware_trace_dropped_total", nil, float64(trace.Dropped))
	ew.Header("aware_trace_ring_capacity", "Bound of the trace ring buffer (0 when tracing is disabled).", "gauge")
	ew.Sample("aware_trace_ring_capacity", nil, float64(trace.Capacity))

	ew.Header("aware_slow_ops_total", "Operations that crossed the slow-op threshold.", "counter")
	ew.Sample("aware_slow_ops_total", nil, float64(s.slow.Logged()))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(ew.String()))
}

// traceResponse is the GET /debug/trace document.
type traceResponse struct {
	// Capacity, Captured and Dropped describe the ring itself.
	Capacity int    `json:"capacity"`
	Captured uint64 `json:"captured"`
	Dropped  uint64 `json:"dropped"`
	// Returned is len(Traces) after filtering.
	Returned int `json:"returned"`
	// Traces holds the matching span trees, newest first. Kernel spans carry
	// pool-counter deltas (morsels, cutoff hits, queue-wait ns) observed
	// during the kernel; under concurrent load those windows overlap other
	// requests' kernels, so treat them as attribution hints, not exact
	// per-call accounting.
	Traces []obs.SpanJSON `json:"traces"`
}

// handleDebugTrace serves GET /debug/trace: the captured request span trees,
// newest first. Query parameters: ?min_ms= keeps only requests at least that
// slow, ?endpoint= keeps only the given route pattern (exact match on the
// root span name, e.g. "POST /v1/sessions/{id}/steps"), ?limit= bounds the
// result count (default: the whole ring).
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var minDur time.Duration
	if raw := q.Get("min_ms"); raw != "" {
		// NaN fails v >= 0; Inf and values past int64 nanoseconds fail the
		// bound, which a Duration conversion would wrap to min int64.
		v, err := strconv.ParseFloat(raw, 64)
		ns := v * float64(time.Millisecond)
		if err != nil || !(v >= 0) || ns >= 1<<63 {
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Sprintf("invalid min_ms %q", raw))
			return
		}
		minDur = time.Duration(ns)
	}
	limit := -1
	if raw := q.Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Sprintf("invalid limit %q", raw))
			return
		}
		limit = v
	}
	endpoint := q.Get("endpoint")

	stats := s.tracer.Stats()
	resp := traceResponse{
		Capacity: stats.Capacity,
		Captured: stats.Captured,
		Dropped:  stats.Dropped,
		Traces:   []obs.SpanJSON{},
	}
	for _, span := range s.tracer.Snapshot() {
		if limit >= 0 && len(resp.Traces) >= limit {
			break
		}
		if endpoint != "" && span.Name() != endpoint {
			continue
		}
		if span.Duration() < minDur {
			continue
		}
		resp.Traces = append(resp.Traces, span.JSON())
	}
	resp.Returned = len(resp.Traces)
	api.WriteJSON(w, http.StatusOK, resp)
}
