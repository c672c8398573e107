package server

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"aware/internal/api"
	"aware/internal/dataset"
	"aware/internal/obs"
)

// endpointStats accumulates one route pattern's counters. All fields are
// atomics (the histogram's buckets included): the hot path (every request)
// never takes a lock, and /debug/metrics reads a consistent-enough snapshot
// without stopping traffic.
type endpointStats struct {
	requests  atomic.Int64
	errors4xx atomic.Int64
	errors5xx atomic.Int64
	inFlight  atomic.Int64
	totalNs   atomic.Int64
	maxNs     atomic.Int64
	// latency distributes request durations over explicit buckets; it backs
	// the per-endpoint histogram series on GET /metrics, where totalNs/maxNs
	// only give a mean and a worst case.
	latency *obs.Histogram
}

func (e *endpointStats) record(status int, elapsed time.Duration) {
	e.requests.Add(1)
	switch {
	case status >= 500:
		e.errors5xx.Add(1)
	case status >= 400:
		e.errors4xx.Add(1)
	}
	e.latency.Observe(elapsed)
	ns := elapsed.Nanoseconds()
	e.totalNs.Add(ns)
	for {
		max := e.maxNs.Load()
		if ns <= max || e.maxNs.CompareAndSwap(max, ns) {
			return
		}
	}
}

// Metrics is the server's lightweight instrumentation: per-endpoint request,
// error, in-flight and cumulative-latency counters, keyed by the route
// pattern ("POST /v1/sessions/{id}/steps"), plus counters for requests the
// router rejected (404/405). The endpoint map is fully populated at route
// registration and never mutated afterwards, so lookups are lock-free.
//
// The same numbers back GET /debug/metrics and GET /metrics: operators and
// the benchmark read one source of truth.
type Metrics struct {
	startedAt time.Time

	mu        sync.Mutex // guards endpoints during registration only
	endpoints map[string]*endpointStats

	notFound         atomic.Int64
	methodNotAllowed atomic.Int64
	otherUnrouted    atomic.Int64
}

// newMetrics returns an empty metrics registry anchored at now.
func newMetrics(now time.Time) *Metrics {
	return &Metrics{startedAt: now, endpoints: make(map[string]*endpointStats)}
}

// register creates the counters for a route pattern. Called once per pattern
// while the routes are built, before the server handles traffic.
func (m *Metrics) register(pattern string) *endpointStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.endpoints[pattern]; ok {
		return st
	}
	st := &endpointStats{latency: obs.NewHistogram(nil)}
	m.endpoints[pattern] = st
	return st
}

// recordUnrouted counts a request the router rejected before any handler ran.
func (m *Metrics) recordUnrouted(status int) {
	switch status {
	case http.StatusNotFound:
		m.notFound.Add(1)
	case http.StatusMethodNotAllowed:
		m.methodNotAllowed.Add(1)
	default:
		m.otherUnrouted.Add(1)
	}
}

// EndpointMetrics is the wire form of one endpoint's counters in
// GET /debug/metrics.
type EndpointMetrics struct {
	Requests  int64   `json:"requests"`
	Errors4xx int64   `json:"errors_4xx"`
	Errors5xx int64   `json:"errors_5xx"`
	InFlight  int64   `json:"in_flight"`
	TotalMs   float64 `json:"total_ms"`
	MeanMs    float64 `json:"mean_ms"`
	MaxMs     float64 `json:"max_ms"`
}

// CacheMetrics is the wire form of one dataset's shared SelectionCache
// counters.
type CacheMetrics struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// MetricsSnapshot is the GET /debug/metrics document: expvar-style JSON the
// benchmark and human operators read.
type MetricsSnapshot struct {
	StartedAt     time.Time `json:"started_at"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	SessionsLive  int       `json:"sessions_live"`
	Datasets      int       `json:"datasets"`
	// Endpoints maps route patterns to their counters.
	Endpoints map[string]EndpointMetrics `json:"endpoints"`
	// Unrouted counts requests rejected by the router itself.
	Unrouted struct {
		NotFound         int64 `json:"not_found"`
		MethodNotAllowed int64 `json:"method_not_allowed"`
		Other            int64 `json:"other"`
	} `json:"unrouted"`
	// SelectionCaches maps dataset names to their shared filter-bitmap cache
	// counters.
	SelectionCaches map[string]CacheMetrics `json:"selection_caches"`
	// SelectionArenas maps dataset names to their shared Selection word
	// arena counters. In steady state fresh_selections stops growing —
	// every compiled filter recycles released words.
	SelectionArenas map[string]dataset.ArenaStats `json:"selection_arenas"`
	// DatasetStorage maps dataset names to their storage detail: row count,
	// column schema, snapshot path/size and resident (mmap) vs heap mode.
	DatasetStorage map[string]DatasetInfo `json:"dataset_storage"`
	// Pool is the morsel-parallel execution pool's counters: configured
	// workers, tasks handed to background workers, morsels processed, and how
	// often kernels fell back to the sequential small-input path.
	Pool dataset.PoolStats `json:"pool"`
	// Trace is the request-trace ring's capture counters (zero value when
	// tracing is disabled).
	Trace obs.TracerStats `json:"trace"`
}

// snapshot collects the counters. Reads are atomic per counter; the snapshot
// as a whole is not a consistent cut, which is fine for monitoring.
func (m *Metrics) snapshot(now time.Time) MetricsSnapshot {
	snap := MetricsSnapshot{
		StartedAt:     m.startedAt,
		UptimeSeconds: now.Sub(m.startedAt).Seconds(),
		Endpoints:     make(map[string]EndpointMetrics, len(m.endpoints)),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for pattern, st := range m.endpoints {
		requests := st.requests.Load()
		totalNs := st.totalNs.Load()
		em := EndpointMetrics{
			Requests:  requests,
			Errors4xx: st.errors4xx.Load(),
			Errors5xx: st.errors5xx.Load(),
			InFlight:  st.inFlight.Load(),
			TotalMs:   float64(totalNs) / 1e6,
			MaxMs:     float64(st.maxNs.Load()) / 1e6,
		}
		if requests > 0 {
			em.MeanMs = em.TotalMs / float64(requests)
		}
		snap.Endpoints[pattern] = em
	}
	snap.Unrouted.NotFound = m.notFound.Load()
	snap.Unrouted.MethodNotAllowed = m.methodNotAllowed.Load()
	snap.Unrouted.Other = m.otherUnrouted.Load()
	return snap
}

// handleDebugMetrics serves GET /debug/metrics.
func (s *Server) handleDebugMetrics(w http.ResponseWriter, r *http.Request) {
	// The server's clock (injectable in tests) anchors both started_at and
	// uptime, so the two never mix fake and real time.
	snap := s.metrics.snapshot(s.now())
	snap.SessionsLive = s.manager.Len()
	snap.Pool = s.pool.Stats()
	snap.Trace = s.tracer.Stats()
	datasets := s.registry.List()
	snap.Datasets = len(datasets)
	snap.SelectionCaches = make(map[string]CacheMetrics, len(datasets))
	snap.SelectionArenas = make(map[string]dataset.ArenaStats, len(datasets))
	snap.DatasetStorage = make(map[string]DatasetInfo, len(datasets))
	for _, info := range datasets {
		snap.DatasetStorage[info.Name] = info
		// Registered datasets always carry a cache (Register builds it), so
		// this lookup cannot miss today; guard anyway rather than panic if a
		// future unregister API changes that.
		cache, err := s.registry.Cache(info.Name)
		if err != nil {
			s.log.Warn("registered dataset has no selection cache", "name", info.Name, "err", err)
			continue
		}
		hits, _, misses := cache.Stats()
		snap.SelectionCaches[info.Name] = CacheMetrics{Hits: hits, Misses: misses, Entries: cache.Len()}
		if arena, err := s.registry.Arena(info.Name); err == nil {
			snap.SelectionArenas[info.Name] = arena.Stats()
		}
	}
	api.WriteJSON(w, http.StatusOK, snap)
}
