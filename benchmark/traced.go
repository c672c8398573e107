package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"aware/internal/dataset"
)

// The traced run reports the per-layer metrics. It is a separate run from the
// one that produces the end-to-end numbers: first the layer ladder on fresh
// twins, then the workload itself with the layers' counters read before and
// after and a span recorded around every op of every other session — the
// difference in step_p50_ms between the sessions with and without spans is
// the tracing overhead.

// counters is one reading of the layers' public counters: Stats() in-process,
// the /metrics exposition (and /debug/metrics for the arena) over HTTP.
type counters struct {
	hits, partial, misses float64
	entries               float64
	fresh, recycled       float64
	poolTasks             float64
	poolQueueWaitUs       float64
	poolCutoff            float64
	poolParallel          float64 // handoffs + rejections: one per helper slot of a parallel kernel run
	stepSeconds, stepReqs float64 // request-duration histogram of the step endpoints
	allSeconds            float64 // ... of every endpoint
}

// stepEndpoints are the routes whose requests are hypothesis-creating ops.
var stepEndpoints = []string{"visualizations", "compare", "steps", "derive", "join", "groupby"}

// parseProm reads a Prometheus text exposition into name{labels} -> value.
func parseProm(text string) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] += v
		}
	}
	return out
}

// sumProm adds up the samples of one metric family whose label string
// contains every given fragment (the router adds a node label to each of its
// nodes' samples, so cluster counters are summed across nodes).
func sumProm(m map[string]float64, name string, fragments ...string) float64 {
	total := 0.0
	for key, v := range m {
		base, labels, _ := strings.Cut(key, "{")
		if base != name {
			continue
		}
		ok := true
		for _, f := range fragments {
			if !strings.Contains(labels, f) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(body), nil
}

// readCounters takes one reading from the deployment.
func readCounters(d *deployment, lb *libBackend) (counters, error) {
	var c counters
	if d.wl.Kind == kindLib {
		h, p, m, entries := lb.cacheStats()
		c.hits, c.partial, c.misses, c.entries = float64(h), float64(p), float64(m), float64(entries)
		if a := d.table.Arena(); a != nil {
			st := a.Stats()
			c.fresh, c.recycled = float64(st.FreshSelections), float64(st.RecycledSelections)
		}
		ps := dataset.DefaultPool().Stats()
		c.poolTasks, c.poolQueueWaitUs = float64(ps.TasksExecuted), float64(ps.QueueWaitNs)/1e3
		c.poolCutoff, c.poolParallel = float64(ps.SequentialCutoffHits), float64(ps.HelperHandoffs+ps.HelperRejections)
		return c, nil
	}
	text, err := httpGet(d.url + "/metrics")
	if err != nil {
		return c, err
	}
	m := parseProm(text)
	c.hits = sumProm(m, "aware_selection_cache_hits_total", `dataset="census"`)
	c.partial = sumProm(m, "aware_selection_cache_partial_hits_total", `dataset="census"`)
	c.misses = sumProm(m, "aware_selection_cache_misses_total", `dataset="census"`)
	c.entries = sumProm(m, "aware_selection_cache_entries", `dataset="census"`)
	c.poolTasks = sumProm(m, "aware_pool_tasks_total")
	c.poolQueueWaitUs = 1e6 * sumProm(m, "aware_pool_queue_wait_seconds_total")
	c.poolCutoff = sumProm(m, "aware_pool_sequential_cutoff_total")
	c.poolParallel = sumProm(m, "aware_pool_helper_handoffs_total") + sumProm(m, "aware_pool_helper_rejections_total")
	for _, e := range stepEndpoints {
		label := `endpoint="POST /v1/sessions/{id}/` + e + `"`
		c.stepSeconds += sumProm(m, "aware_http_request_duration_seconds_sum", label)
		c.stepReqs += sumProm(m, "aware_http_request_duration_seconds_count", label)
	}
	c.allSeconds = sumProm(m, "aware_http_request_duration_seconds_sum")
	// The arena counters are only in the JSON debug document; a server that
	// stops serving it just leaves the arena share at 0.
	for _, n := range d.nodes {
		if body, err := httpGet(n.url + "/debug/metrics"); err == nil {
			var doc struct {
				Arenas map[string]dataset.ArenaStats `json:"selection_arenas"`
			}
			if json.Unmarshal([]byte(body), &doc) == nil {
				st := doc.Arenas["census"]
				c.fresh += float64(st.FreshSelections)
				c.recycled += float64(st.RecycledSelections)
			}
		}
	}
	return c, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics turns two readings around a pass into the per-layer metrics.
func counterMetrics(m map[string]float64, d *deployment, before, after counters, steps int, wall time.Duration, conns int) {
	hits, partial, misses := after.hits-before.hits, after.partial-before.partial, after.misses-before.misses
	lookups := hits + partial + misses
	n := float64(steps)
	m["dataset.cache_hit_ratio"] = ratio(hits, lookups)
	m["dataset.cache_partial_ratio"] = ratio(partial, lookups)
	m["dataset.cache_entries"] = after.entries
	m["dataset.rows_scanned_per_step"] = ratio((misses+partial)*float64(d.table.NumRows()), n)
	fresh, recycled := after.fresh-before.fresh, after.recycled-before.recycled
	m["dataset.arena_recycled_share"] = ratio(recycled, fresh+recycled)
	m["dataset.pool_tasks_per_step"] = ratio(after.poolTasks-before.poolTasks, n)
	m["dataset.pool_queue_wait_us_per_step"] = ratio(after.poolQueueWaitUs-before.poolQueueWaitUs, n)
	cutoff, parallel := after.poolCutoff-before.poolCutoff, after.poolParallel-before.poolParallel
	m["dataset.pool_cutoff_share"] = ratio(cutoff, cutoff+parallel)
	m["server.step_mean_us"] = 1e6 * ratio(after.stepSeconds-before.stepSeconds, after.stepReqs-before.stepReqs)
	m["server.busy_share"] = ratio(after.allSeconds-before.allSeconds, wall.Seconds()*float64(conns))
}

// wireCounter counts the bytes the loopback depth's connection carries.
type wireCounter struct{ n atomic.Int64 }

func (w *wireCounter) total() int64 { return w.n.Load() }

type countingConn struct {
	net.Conn
	w *wireCounter
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.n.Add(int64(n))
	return n, err
}

// httpClient is newHTTPClient with the connection's bytes counted.
func (w *wireCounter) httpClient() *http.Client {
	hc := newHTTPClient()
	var dialer net.Dialer
	hc.Transport.(*http.Transport).DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := dialer.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return countingConn{conn, w}, nil
	}
	return hc
}

// passShare is the part of -seconds the traced run spends on the workload
// itself; the ladder takes about as much again.
const passShare = 0.6

// runTraced is the traced run: the ladder, then the workload with counters
// and op spans, then the layer metrics.
func runTraced(env *benchEnv, cfg runConfig, d *deployment, gen *generator, res *runResult) error {
	epoch := time.Now()
	m := res.Metrics
	for _, spec := range perLayer {
		m[spec.Name] = 0
	}
	if err := d.openTable(); err != nil {
		return err
	}
	if err := colstoreMetrics(m, d); err != nil {
		return err
	}

	// 1. The ladder, on fresh twins and freshly started children.
	l, err := runLadder(cfg, d, gen, res, epoch)
	if err != nil {
		return err
	}
	res.Attempted += len(l.ops) * len(l.rungs)
	fmt.Fprintf(cfg.log, "%s: traced run\n", cfg.wl.Name)
	l.report(cfg.log, m)
	m["dataset.where_allocs"] = whereAllocs(d, gen)

	// 2. The workload: warm-up, then one pass with counters and op spans.
	analysts, lb, err := workloadAnalysts(cfg, d, gen)
	if err != nil {
		return err
	}
	if w := warmUp(cfg, analysts); len(w.failures) > 0 {
		res.fail("warm-up: %s", w.failures[0])
	}
	for _, a := range analysts {
		a.spans = &spanRecorder{}
	}
	before, err := readCounters(d, lb)
	if err != nil {
		return err
	}
	passCfg := cfg
	passCfg.seconds = cfg.seconds * passShare
	var traced phase
	if cfg.wl.Kind == kindOpen {
		traced = runOpen(passCfg, analysts, res)
	} else {
		traced = runClosed(analysts, time.Duration(passCfg.seconds*float64(time.Second)))
	}
	after, err := readCounters(d, lb)
	if err != nil {
		return err
	}
	var passSpans []span
	for _, a := range analysts {
		passSpans = append(passSpans, a.spans.spans...)
		a.spans = nil
	}
	res.absorb(&traced)
	steps := len(traced.byClass(classStep, -1))
	counterMetrics(m, d, before, after, steps, traced.elapsed, len(analysts))
	// Tracing overhead: step_p50_ms of the sessions with spans against the
	// sessions without, interleaved within the one pass.
	var with, without []float64
	for _, s := range traced.byClass(classStep, -1) {
		if cfg.wl.Kind == kindOpen && s.window != 0 {
			continue
		}
		if s.traced {
			with = append(with, float64(s.dur)/1e6)
		} else {
			without = append(without, float64(s.dur)/1e6)
		}
	}
	if base := median(without); base > 0 {
		m["bench.trace_overhead_pct"] = 100 * (median(with) - base) / base
	}
	genMetrics(m, passCfg, &traced)
	m["cluster.affinity_violations"] = float64(traced.affinity)

	// 3. The cluster's failover drill and the leak check.
	if cfg.wl.Kind == kindCluster {
		if err := killDrill(d, gen, res); err != nil {
			return err
		}
		if body, err := httpGet(d.url + "/healthz"); err == nil {
			var h struct {
				Retried int64 `json:"retried"`
			}
			if json.Unmarshal([]byte(body), &h) == nil {
				m["cluster.retried_total"] = float64(h.Retried)
			}
		}
	}
	if cfg.wl.Kind != kindLib {
		if err := d.checkNoLeak(res); err != nil {
			return err
		}
	}
	m["bench.failed_share"] = ratio(float64(res.Failed), float64(res.Attempted))

	// 4. Spans go to disk when the run ends.
	spans := append([]span(nil), l.rec.spans...)
	if len(passSpans) > maxPassSpans {
		passSpans = passSpans[:maxPassSpans]
	}
	for _, s := range passSpans {
		s.ID = len(spans) + 1
		s.Start -= epoch.UnixNano()
		s.End -= epoch.UnixNano()
		spans = append(spans, s)
	}
	path, err := writeTrace(cfg.outDir, cfg, spans)
	if err != nil {
		return err
	}
	rel, _ := filepath.Rel(env.root, path)
	fmt.Fprintf(cfg.log, "  %d spans written to %s\n", len(spans), rel)
	return nil
}

// genMetrics reports how honest the load generator was: what it offered, what
// it achieved, how late it ran, and for the open loop the per-rate windows.
func genMetrics(m map[string]float64, cfg runConfig, p *phase) {
	ok := 0
	var lateness, steps []float64
	for _, s := range p.samples {
		if !s.failed {
			ok++
		}
		lateness = append(lateness, float64(s.late)/1e6)
		if !s.failed && s.kind.class() == classStep {
			steps = append(steps, float64(s.dur)/1e6)
		}
	}
	sort.Float64s(lateness)
	sort.Float64s(steps)
	m["gen.achieved_ops_s"] = float64(ok) / p.elapsed.Seconds()
	m["gen.offered_ops_s"] = float64(len(p.samples)) / p.elapsed.Seconds()
	m["gen.sched_lag_p99_ms"] = percentile(lateness, 99)
	m["bench.step_p99_ms"] = percentile(steps, 99)
	if len(steps) > 0 {
		m["bench.step_max_ms"] = steps[len(steps)-1]
	}
	// The tail the end-to-end list does not carry (see spec.go): p95 per fifth
	// of the pass — of its lowest-rate window in the open loop — and the median
	// of the five.
	window, span := -1, int64(p.elapsed)
	if cfg.wl.Kind == kindOpen {
		window, span = 0, int64(windowBounds(time.Duration(cfg.seconds*float64(time.Second)), cfg.shares())[1])
	}
	m["bench.step_p95_ms"] = windowedP95(p.byClass(classStep, window), 0, span, 5)
	if cfg.wl.Kind != kindOpen {
		return
	}
	ws := summarizeWindows(p, cfg.rates, time.Duration(cfg.seconds*float64(time.Second)), cfg.shares())
	m["gen.offered_ops_s"] = cfg.rates[0]*cfg.shares()[0] + cfg.rates[1]*cfg.shares()[1] + cfg.rates[2]*cfg.shares()[2]
	m["gen.r2_p95_ms"], m["gen.r3_p95_ms"] = ws[1].stepP95, ws[2].stepP95
	m["gen.backlog_end"] = ws[2].backlogEnd
	late := 0 // ops over the latency limit at the lowest rate
	for _, s := range p.samples {
		if s.window == 0 && (s.failed || float64(s.dur)/1e6 > latencyLimitMs) {
			late++
		}
	}
	m["gen.late_share"] = ratio(float64(late), float64(ws[0].ops))
	for i, w := range ws {
		if cfg.shares()[i] == 0 {
			continue
		}
		if w.ok() {
			m["gen.rate_ok_ops_s"] = w.rate
		}
		fmt.Fprintf(cfg.log, "  open loop at %4.0f ops/s: %5d ops, %d failed, step p95 %.3f ms, backlog mid/end %.1f/%.1f, sustained=%v\n",
			w.rate, w.ops, w.failed, w.stepP95, w.backlogMid, w.backlogEnd, w.ok())
	}
}

// colstoreMetrics times the snapshot round trip of the workload's dataset.
func colstoreMetrics(m map[string]float64, d *deployment) error {
	start := time.Now()
	t, err := dataset.OpenSnapshot(d.snapshot)
	if err != nil {
		return err
	}
	m["colstore.snapshot_load_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6
	defer t.Close()
	copyPath := filepath.Join(d.dir, "copy.aware")
	start = time.Now()
	if err := t.Snapshot(copyPath); err != nil {
		return err
	}
	m["colstore.snapshot_write_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6
	fi, err := os.Stat(copyPath)
	if err != nil {
		return err
	}
	m["colstore.bytes_per_row"] = float64(fi.Size()) / float64(t.NumRows())
	return os.Remove(copyPath)
}

// whereAllocs is the steady-state allocation count of one Table.Where +
// Release over the workload's predicates, with the arena the server pins.
func whereAllocs(d *deployment, gen *generator) float64 {
	t, err := twinTable(d)
	if err != nil {
		return 0
	}
	defer t.Close()
	n := len(gen.pool)
	if n > 200 {
		n = 200
	}
	run := func() {
		for _, p := range gen.pool[:n] {
			if sel, err := t.Where(p.pred); err == nil {
				sel.Release()
			}
		}
	}
	run() // fill the arena
	return allocsOf(run) / float64(n)
}

// allocsOf returns the heap allocations fn makes.
func allocsOf(fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs)
}
