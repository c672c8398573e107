package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"aware/internal/api"
	"aware/internal/client"
	"aware/internal/core"
	"aware/internal/dataset"
	"aware/internal/server"
)

// The layer ladder answers "where does a step's time go?" without any tracing
// inside the program: the same seeded script is replayed on deterministic twin
// sessions, one twin per depth — the constituent public kernel calls, then
// Session.Apply, then server.Handler() on a response recorder (trace ring off,
// ring on, journal on), then loopback HTTP to a child awared, then through a
// child awarerouter. Every call is a span; the span of depth k for a step is
// the parent of depth k-1's span for the same step, and a layer's self time is
// its span minus its child's. Spans are timed from the benchmark's own files,
// around the calls into each layer's public functions.

// span is one timed call. Times are ns since the traced run began; Parent is
// the ID of the span that caused this one (0 for a root); Request names the
// scripted op ("session/op") all depths of one step share.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int    `json:"parent"`
	Request string `json:"request"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanRecorder keeps spans in memory until the run ends.
type spanRecorder struct{ spans []span }

func (r *spanRecorder) add(s span) int {
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// selfTimes returns every span's self time: its duration minus the durations
// of the spans that name it as their parent.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// rung is one depth of the ladder.
type rung struct {
	// layer is the module whose cost this depth adds over the one below.
	layer string
	be    backend
	// parts, when set, returns the constituent calls of the op just run (the
	// kernel depth).
	parts func() []part
	// allocsPerOp and allocKBPerOp are filled by the replay.
	allocsPerOp, allocKBPerOp float64
	close                     func()
}

// ladderOp is one scripted op's measurements across the depths.
type ladderOp struct {
	kind opKind
	// label is the row of the budget table the op belongs to: its kind, split
	// where one kind has two cost classes (a group-by over a numeric axis bins
	// the column first), because medians of a two-humped population do not add.
	label   string
	request string
	spanID  []int // per rung
	dur     []int64
}

// ladder is the outcome of replaying the script at every depth.
type ladder struct {
	rungs []*rung
	ops   []*ladderOp
	rec   *spanRecorder
	// partNs is, per op, the total time of each named constituent call.
	partNs []map[string]int64
	// direct measurements taken next to the replay
	codecUs, replayUsPerStep, restoreUsPerStep, journalBytesPerStep []float64
	wireBytesPerStep                                                []float64
	// directNs holds the direct dataset calls timed by measureRelational.
	directNs                            map[string][]float64
	planRowsPerStep, planAllocKBPerStep float64
}

// quietLogger is the server's default logging (info level, JSON) with the
// output discarded, so the handler twins pay what a child awared pays to log a
// request without flooding the benchmark's output.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

// twinTable opens a private handle on the deployment's snapshot: every twin
// owns its table, cache and arena, so all depths start from the same state.
func twinTable(d *deployment) (*dataset.Table, error) {
	t, err := dataset.OpenSnapshot(d.snapshot)
	if err != nil {
		return nil, err
	}
	t.SetArena(dataset.NewWordArena(t.NumRows()))
	return t, nil
}

// handlerRung builds an in-process server over its own table handle and
// returns the backend that serves client requests from its Handler().
func handlerRung(d *deployment, layer string, traceCapacity int, journalDir string) (*rung, error) {
	t, err := dataset.OpenSnapshot(d.snapshot)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Logger: quietLogger(), TraceCapacity: traceCapacity, JournalDir: journalDir, SlowOp: time.Second})
	if err != nil {
		t.Close()
		return nil, err
	}
	if err := srv.Registry().Register("census", t); err != nil {
		t.Close()
		return nil, err
	}
	if d.wl.Relational {
		cat, err := newOccupationCatalog()
		if err == nil {
			err = srv.Registry().Register(dimDataset, cat.table)
		}
		if err != nil {
			t.Close()
			return nil, err
		}
	}
	ht := &handlerTransport{h: srv.Handler()}
	c := client.New("http://twin.invalid", client.WithHTTPClient(&http.Client{Transport: ht}))
	return &rung{layer: layer, be: &clientBackend{c: c, ht: ht}, close: func() { srv.Close(); t.Close() }}, nil
}

// buildRungs assembles the depths a workload has: the library workloads stop
// at Session.Apply (server, client and cluster do none of their work), the
// single-node HTTP workloads add the handler twins and the child awared, the
// cluster workload adds the journaling handler and the router.
func buildRungs(d *deployment, wire *wireCounter) ([]*rung, error) {
	var rungs []*rung
	fail := func(err error) ([]*rung, error) {
		closeRungs(rungs)
		return nil, err
	}
	libFor := func(t *dataset.Table) (*libBackend, error) {
		switch {
		case d.wl.Relational:
			cat, err := newOccupationCatalog()
			return &libBackend{table: t, catalog: cat}, err
		case d.wl.Kind == kindLib:
			return coldBackend(t), nil
		}
		return &libBackend{table: t, shared: dataset.NewSelectionCache(t)}, nil
	}
	for _, layer := range []string{"kernel", "core.apply"} {
		t, err := twinTable(d)
		if err != nil {
			return fail(err)
		}
		lb, err := libFor(t)
		if err != nil {
			t.Close()
			return fail(err)
		}
		r := &rung{layer: layer, be: lb, close: func() { t.Close() }}
		if layer == "kernel" {
			kb := &kernelBackend{lib: lb}
			r.be, r.parts = kb, kb.lastParts
		}
		rungs = append(rungs, r)
	}
	if d.wl.Kind == kindLib {
		return rungs, nil
	}
	for _, h := range []struct {
		layer   string
		ring    int
		journal bool
	}{{"server.handler", -1, false}, {"server.obs", 0, false}, {"server.journal", 0, true}} {
		if h.journal && d.wl.Kind != kindCluster {
			continue
		}
		journalDir := ""
		if h.journal {
			journalDir = filepath.Join(d.dir, "journal-twin")
		}
		r, err := handlerRung(d, h.layer, h.ring, journalDir)
		if err != nil {
			return fail(err)
		}
		rungs = append(rungs, r)
	}
	direct := client.New(d.nodes[0].url, client.WithHTTPClient(wire.httpClient()))
	rungs = append(rungs, &rung{layer: "client.loopback", be: &clientBackend{c: direct}})
	if d.router != nil {
		routed := client.New(d.router.url, client.WithHTTPClient(newHTTPClient()))
		rungs = append(rungs, &rung{layer: "cluster.router", be: &clientBackend{c: routed}})
	}
	return rungs, nil
}

func closeRungs(rungs []*rung) {
	for _, r := range rungs {
		if r.close != nil {
			r.close()
		}
	}
}

// runLadder replays the first sessions of analyst 0's script at every depth,
// session by session: session s runs on the Session.Apply twin first (its
// answers are the reference every other depth must match bit for bit), then on
// every other twin, so slow drifts of the host hit all depths of a step alike.
// It stops after cfg.ladderSteps hypothesis-creating steps, or earlier once the
// Session.Apply twin alone has used its share of the run (the 3M-row steps
// take tens of ms each).
func runLadder(cfg runConfig, d *deployment, gen *generator, res *runResult, epoch time.Time) (*ladder, error) {
	wire := &wireCounter{}
	rungs, err := buildRungs(d, wire)
	if err != nil {
		return nil, err
	}
	defer closeRungs(rungs)
	l := &ladder{rungs: rungs, rec: &spanRecorder{}}
	budget := time.Duration(cfg.seconds * 0.35 * float64(time.Second))
	order := append([]int{1, 0}, seq(2, len(rungs))...)
	mallocs := make([]uint64, len(rungs))
	allocBytes := make([]uint64, len(rungs))

	var applyTime time.Duration
	steps, sessions := 0, 0
	for ; steps < cfg.ladderSteps && (sessions == 0 || applyTime < budget); sessions++ {
		ops := gen.session(0, sessions)
		first := len(l.ops)
		var reference []opResult
		for _, ri := range order {
			r := rungs[ri]
			runtime.GC() // collect between twins, not inside a timed op
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			sr := r.be.newSession()
			for i := range ops {
				o := &ops[i]
				if o.kind == opDelete {
					l.beforeDelete(d, r, sr)
				}
				w0 := wire.total()
				start := time.Now()
				got, dur, err := sr.do(o)
				if err != nil {
					return nil, fmt.Errorf("ladder: %s session %d op %d (%s): %w", r.layer, sessions, i, o.kind, err)
				}
				if ri == 1 {
					l.ops = append(l.ops, &ladderOp{kind: o.kind, label: o.label(), request: fmt.Sprintf("s%d/%d", sessions, i),
						spanID: make([]int, len(rungs)), dur: make([]int64, len(rungs))})
					l.partNs = append(l.partNs, nil)
					reference = append(reference, got)
					applyTime += dur
					if o.kind.class() == classStep {
						steps++
					}
				} else if ri != 0 || got.hasHyp {
					// The kernel depth produces no answer for ops without a
					// hypothesis; everything else must match the library.
					res.check(sameResult(got, reference[i]), "ladder: %s answer of s%d/%d differs from Session.Apply's (p %v vs %v)",
						r.layer, sessions, i, got.pValue, reference[i].pValue)
				}
				lo := l.ops[first+i]
				at := start.Sub(epoch).Nanoseconds()
				lo.dur[ri] = int64(dur)
				lo.spanID[ri] = l.rec.add(span{Name: r.layer + "." + o.kind.String(), Start: at, End: at + int64(dur), Request: lo.request})
				if r.parts != nil {
					sums := make(map[string]int64)
					for _, p := range r.parts() {
						l.rec.add(span{Name: p.name, Start: p.start.Sub(epoch).Nanoseconds(), End: p.end.Sub(epoch).Nanoseconds(), Parent: lo.spanID[ri], Request: lo.request})
						sums[p.name] += p.end.Sub(p.start).Nanoseconds()
					}
					l.partNs[first+i] = sums
				}
				if r.layer == "client.loopback" && o.kind.class() == classStep {
					l.wireBytesPerStep = append(l.wireBytesPerStep, float64(wire.total()-w0))
				}
			}
			runtime.ReadMemStats(&m1)
			mallocs[ri] += m1.Mallocs - m0.Mallocs
			allocBytes[ri] += m1.TotalAlloc - m0.TotalAlloc
		}
	}
	for ri, r := range rungs {
		r.allocsPerOp = float64(mallocs[ri]) / float64(len(l.ops))
		r.allocKBPerOp = float64(allocBytes[ri]) / 1024 / float64(len(l.ops))
	}
	// Link the depths: the span of depth k is the parent of depth k-1's.
	for _, lo := range l.ops {
		for ri := 0; ri+1 < len(rungs); ri++ {
			l.rec.spans[lo.spanID[ri]-1].Parent = lo.spanID[ri+1]
		}
	}
	l.measureCodec(gen, sessions)
	if d.wl.Relational {
		if err := l.measureRelational(d, gen, sessions, epoch); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func seq(from, to int) []int {
	var out []int
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

// measureRelational replays the sessions once more on a twin of its own and
// times, next to each relational step, the direct dataset call underneath it
// (HashJoin, Derive, CrossCounts) and what plan.Run allocated and
// materialized. This is kept off the ladder's kernel twin: the repeated work
// and the MemStats reads would inflate the very spans the ladder compares.
func (l *ladder) measureRelational(d *deployment, gen *generator, sessions int, epoch time.Time) error {
	t, err := twinTable(d)
	if err != nil {
		return err
	}
	defer t.Close()
	cat, err := newOccupationCatalog()
	if err != nil {
		return err
	}
	kb := &kernelBackend{lib: &libBackend{table: t, catalog: cat}, direct: true}
	l.directNs = make(map[string][]float64)
	for s := 0; s < sessions; s++ {
		ops := gen.session(0, s)
		sr := kb.newSession()
		for i := range ops {
			if _, _, err := sr.do(&ops[i]); err != nil {
				return fmt.Errorf("ladder: direct dataset calls of s%d/%d (%s): %w", s, i, ops[i].kind, err)
			}
			for _, p := range kb.parts {
				if p.direct {
					l.directNs[p.name] = append(l.directNs[p.name], float64(p.end.Sub(p.start).Nanoseconds()))
					l.rec.add(span{Name: p.name, Start: p.start.Sub(epoch).Nanoseconds(), End: p.end.Sub(epoch).Nanoseconds(), Request: fmt.Sprintf("s%d/%d", s, i)})
				}
			}
		}
	}
	if kb.planRuns > 0 {
		l.planRowsPerStep = float64(kb.planRows) / float64(kb.planRuns)
		l.planAllocKBPerStep = kb.planAllocKB / float64(kb.planRuns)
	}
	return nil
}

// beforeDelete takes the per-session measurements that need the finished
// session still alive: replay cost at the library depth, restore cost at the
// bare handler depth, journal size at the journaling depth.
func (l *ladder) beforeDelete(d *deployment, r *rung, sr sessionRunner) {
	switch r.layer {
	case "core.apply":
		ls := sr.(*libSession)
		steps := core.StepsFromLog(ls.sess.Log())
		if len(steps) == 0 {
			return
		}
		t, err := dataset.OpenSnapshot(d.snapshot)
		if err != nil {
			return
		}
		defer t.Close()
		start := time.Now()
		if _, err := core.Replay(t, core.Options{Catalog: ls.b.catalog}, steps); err == nil {
			l.replayUsPerStep = append(l.replayUsPerStep, float64(time.Since(start).Microseconds())/float64(len(steps)))
		}
	case "server.handler":
		cs := sr.(*clientSession)
		log, err := cs.b.c.Log(context.Background(), cs.id)
		if err != nil || log.Count == 0 {
			return
		}
		req := api.RestoreSessionRequest{Spec: api.SessionSpec{Dataset: "census"}}
		for _, e := range log.Steps {
			raw, err := core.MarshalStep(e.Step)
			if err != nil {
				return
			}
			req.Steps = append(req.Steps, raw)
		}
		twin := cs.id + 1_000_000
		if _, err := cs.b.c.RestoreSession(context.Background(), twin, req); err == nil {
			l.restoreUsPerStep = append(l.restoreUsPerStep, float64(cs.b.ht.last.Microseconds())/float64(log.Count))
			cs.b.c.DeleteSession(context.Background(), twin)
		}
	case "server.journal":
		cs := sr.(*clientSession)
		fi, err := os.Stat(filepath.Join(d.dir, "journal-twin", fmt.Sprintf("session-%d.jsonl", cs.id)))
		log, lerr := cs.b.c.Log(context.Background(), cs.id)
		if err == nil && lerr == nil && log.Count > 0 {
			l.journalBytesPerStep = append(l.journalBytesPerStep, float64(fi.Size())/float64(log.Count))
		}
	}
}

// measureCodec times the step wire codec (UnmarshalStep + MarshalStep) on the
// raw steps of the replayed sessions.
func (l *ladder) measureCodec(gen *generator, sessions int) {
	for s := 0; s < sessions; s++ {
		for _, o := range gen.session(0, s) {
			if o.raw == nil {
				continue
			}
			start := time.Now()
			step, err := core.UnmarshalStep(o.raw)
			if err == nil {
				_, err = core.MarshalStep(step)
			}
			if err == nil {
				l.codecUs = append(l.codecUs, float64(time.Since(start).Nanoseconds())/1e3)
			}
		}
	}
}

// budgetRow is one op kind's line of the budget table: the median self time
// of every depth, the median of the top depth, and how far the first is from
// summing to the second.
type budgetRow struct {
	kind   opKind
	label  string
	count  int
	selfUs []float64 // per rung
	topUs  float64
	kernel float64 // median kernel-depth duration
}

// budget computes the table: per row label, the median over its ops of each
// depth's self time (span minus its child's) and of the top depth's span.
func (l *ladder) budget() []budgetRow {
	self := selfTimes(l.rec.spans)
	top := len(l.rungs) - 1
	var rows []budgetRow
	index := map[string]int{}
	perRung := map[string][][]float64{}
	tops, kernels := map[string][]float64{}, map[string][]float64{}
	for _, lo := range l.ops {
		if _, ok := index[lo.label]; !ok {
			index[lo.label] = len(rows)
			rows = append(rows, budgetRow{kind: lo.kind, label: lo.label, selfUs: make([]float64, len(l.rungs))})
			perRung[lo.label] = make([][]float64, len(l.rungs))
		}
		rows[index[lo.label]].count++
		for ri := range l.rungs {
			perRung[lo.label][ri] = append(perRung[lo.label][ri], float64(self[lo.spanID[ri]])/1e3)
		}
		tops[lo.label] = append(tops[lo.label], float64(lo.dur[top])/1e3)
		kernels[lo.label] = append(kernels[lo.label], float64(lo.dur[0])/1e3)
	}
	for i := range rows {
		row := &rows[i]
		row.topUs, row.kernel = median(tops[row.label]), median(kernels[row.label])
		for ri := range l.rungs {
			row.selfUs[ri] = median(perRung[row.label][ri])
		}
		// The kernel depth's own children (where, agg, ...) are inside it;
		// its ladder share is its whole span.
		row.selfUs[0] = row.kernel
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].kind < rows[j].kind })
	return rows
}

// stepWeighted folds a per-kind value over the hypothesis-creating kinds,
// weighted by how often each kind occurs: the per-step figure of a layer.
func stepWeighted(rows []budgetRow, value func(budgetRow) float64) float64 {
	var sum, n float64
	for _, r := range rows {
		if r.kind.class() == classStep {
			sum += float64(r.count) * value(r)
			n += float64(r.count)
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// partUs is the per-step median, folded like stepWeighted, of one constituent
// call of the kernel depth (0 for kinds that never make it).
func (l *ladder) partUs(name string) float64 {
	byKind := map[string][]float64{}
	for i, lo := range l.ops {
		if lo.kind.class() == classStep {
			byKind[lo.label] = append(byKind[lo.label], float64(l.partNs[i][name])/1e3)
		}
	}
	var sum, n float64
	for _, xs := range byKind {
		sum += float64(len(xs)) * median(xs)
		n += float64(len(xs))
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

func (l *ladder) rungIndex(layer string) int {
	for i, r := range l.rungs {
		if r.layer == layer {
			return i
		}
	}
	return -1
}

// report prints the budget table with its sum check and fills the ladder's
// per-layer metrics.
func (l *ladder) report(w io.Writer, m map[string]float64) {
	rows := l.budget()
	fmt.Fprintf(w, "  layer ladder (median self time per op kind, us; %d ops replayed at %d depths)\n  %-18s %6s", len(l.ops), len(l.rungs), "op", "count")
	for _, r := range l.rungs {
		fmt.Fprintf(w, " %16s", r.layer)
	}
	fmt.Fprintf(w, " %12s %12s %8s\n", "sum", "top median", "check")
	for _, row := range rows {
		fmt.Fprintf(w, "  %-18s %6d", row.label, row.count)
		sum := 0.0
		for _, v := range row.selfUs {
			fmt.Fprintf(w, " %16.1f", v)
			sum += v
		}
		check := 0.0
		if row.topUs > 0 {
			check = 100 * (sum - row.topUs) / row.topUs
		}
		fmt.Fprintf(w, " %12.1f %12.1f %+7.1f%%\n", sum, row.topUs, check)
	}
	fmt.Fprintf(w, "  %-18s %6s", "allocs/op", "")
	for _, r := range l.rungs {
		fmt.Fprintf(w, " %16.1f", r.allocsPerOp)
	}
	fmt.Fprintln(w)

	sumSelf := stepWeighted(rows, func(r budgetRow) float64 {
		s := 0.0
		for _, v := range r.selfUs {
			s += v
		}
		return s
	})
	top := stepWeighted(rows, func(r budgetRow) float64 { return r.topUs })
	if top > 0 {
		m["ladder.sum_check_pct"] = 100 * abs(sumSelf-top) / top
		m["ladder.kernel_share"] = stepWeighted(rows, func(r budgetRow) float64 { return r.kernel }) / top
	}
	fmt.Fprintf(w, "  sum check over hypothesis-creating steps: sum of self times %.1f us vs top-depth median %.1f us (%.2f%% apart); kernel share %.3f\n",
		sumSelf, top, m["ladder.sum_check_pct"], m["ladder.kernel_share"])

	for layer, name := range map[string]string{
		"core.apply": "core.apply_self_us", "server.handler": "server.handler_self_us", "server.obs": "server.obs_self_us",
		"server.journal": "server.journal_self_us", "client.loopback": "client.loopback_self_us", "cluster.router": "cluster.router_self_us",
	} {
		m[name] = 0
		if ri := l.rungIndex(layer); ri >= 0 {
			m[name] = stepWeighted(rows, func(r budgetRow) float64 { return r.selfUs[ri] })
		}
	}
	m["dataset.where_us"] = l.partUs("dataset.where")
	m["dataset.agg_us"] = l.partUs("dataset.agg")
	m["stats.test_us"] = l.partUs("stats.test")
	m["investing.bid_ns"] = 1e3 * l.partUs("investing.bid")
	m["plan.optimize_us"] = l.partUs("plan.optimize")
	m["plan.run_us"] = l.partUs("plan.run")
	m["dataset.join_us"] = median(l.directNs["dataset.join"]) / 1e3
	m["dataset.derive_us"] = median(l.directNs["dataset.derive"]) / 1e3
	m["dataset.groupby_us"] = median(l.directNs["dataset.groupby"]) / 1e3
	m["plan.rows_materialized_per_step"], m["plan.alloc_kb_per_step"] = l.planRowsPerStep, l.planAllocKBPerStep
	apply := l.rungs[1]
	m["core.apply_allocs"], m["core.apply_alloc_kb"] = apply.allocsPerOp, apply.allocKBPerOp
	m["server.handler_allocs"] = 0
	if ri := l.rungIndex("server.handler"); ri >= 0 {
		m["server.handler_allocs"] = l.rungs[ri].allocsPerOp
	}
	m["core.codec_us"] = median(l.codecUs)
	m["core.replay_us_per_step"] = median(l.replayUsPerStep)
	m["server.restore_us_per_step"] = median(l.restoreUsPerStep)
	m["server.journal_bytes_per_step"] = median(l.journalBytesPerStep)
	m["client.wire_bytes_per_step"] = median(l.wireBytesPerStep)
	var holdout []float64
	for _, lo := range l.ops {
		if lo.kind == opHoldoutValidate {
			holdout = append(holdout, float64(lo.dur[1])/1e3)
		}
	}
	m["core.holdout_us"] = median(holdout)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// traceFile is what benchmark/out/trace_<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// maxPassSpans bounds how many of the traced pass' op spans are written next
// to the ladder's, so a trace file stays a few MB.
const maxPassSpans = 20000

func writeTrace(dir string, cfg runConfig, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	data, err := json.Marshal(traceFile{Workload: cfg.wl.Name, Seed: cfg.seed, Spans: spans})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+cfg.wl.Name+".json")
	return path, os.WriteFile(path, data, 0o644)
}
