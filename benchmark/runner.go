package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"time"

	"aware/internal/api"
	"aware/internal/census"
	"aware/internal/client"
	"aware/internal/core"
	"aware/internal/dataset"
	"aware/internal/plan"
	"aware/internal/stats"
)

// A session script runs against a backend: the library (core.Session), the
// server's handler, or a server / router over loopback HTTP. Every backend
// reports each op's outcome in the same form, so the same script run through
// two routes can be compared bit for bit — the operational form of "no layer
// ever changes an answer".

// opResult is what one op produced.
type opResult struct {
	hasHyp   bool
	hypID    int
	pValue   float64
	alpha    float64 // α invested in the hypothesis
	rejected bool
	wealth   float64 // remaining α-wealth after a mutating op
	// extra carries the op-specific numbers of reads and hold-out checks:
	// journal length, confirmed counts, per-half p-values.
	extra []float64
	gauge *api.Gauge
}

// sameResult reports whether two routes produced bit-identical outcomes.
func sameResult(a, b opResult) bool {
	if a.hasHyp != b.hasHyp || a.hypID != b.hypID || a.rejected != b.rejected ||
		math.Float64bits(a.pValue) != math.Float64bits(b.pValue) ||
		math.Float64bits(a.alpha) != math.Float64bits(b.alpha) ||
		math.Float64bits(a.wealth) != math.Float64bits(b.wealth) ||
		len(a.extra) != len(b.extra) {
		return false
	}
	for i := range a.extra {
		if math.Float64bits(a.extra[i]) != math.Float64bits(b.extra[i]) {
			return false
		}
	}
	if (a.gauge == nil) != (b.gauge == nil) {
		return false
	}
	return a.gauge == nil || reflect.DeepEqual(*a.gauge, *b.gauge)
}

// sessionRunner executes the ops of one session, in order. The returned
// duration is the time the measured layer took: wall time around the call,
// except for the handler backend, which times ServeHTTP alone.
type sessionRunner interface {
	do(o *op) (opResult, time.Duration, error)
}

type backend interface {
	newSession() sessionRunner
}

// --- library backend ---

// libBackend runs scripts through core.Session.Apply and the session
// accessors, the way a program embedding the aware package does.
type libBackend struct {
	table *dataset.Table
	// shared, when set, is the dataset-wide filter cache every session
	// resolves through (what the server's registry gives its sessions). When
	// nil each session gets a private cache of privateCap entries (0 = the
	// default capacity).
	shared     *dataset.SelectionCache
	privateCap int
	catalog    plan.Catalog
	// collect runs a garbage collection when a session is deleted. The library
	// workloads set it: a session allocates tables of tens of MB, and without
	// a fixed collection point peak RSS says when the collector happened to
	// run (68 or 92 MB from one run to the next), not what sessions need. The
	// collection (about 1 ms) is inside steps_per_s and cpu_ms_per_step.
	collect bool
	// cache counters of finished private-cache sessions
	hits, partial, misses uint64
	entries               int
}

// coldBackend returns a backend whose sessions each own a one-entry filter cache:
// every lookup misses, the compare steps' included, so the hit ratio of
// lib_cold_3m is 0 by construction and every filter is a kernel scan.
func coldBackend(table *dataset.Table) *libBackend {
	return &libBackend{table: table, privateCap: 1}
}

func (b *libBackend) newSession() sessionRunner { return &libSession{b: b} }

// cacheStats returns the cumulative filter-cache counters of the backend.
func (b *libBackend) cacheStats() (hits, partial, misses uint64, entries int) {
	if b.shared != nil {
		h, p, m := b.shared.Stats()
		return h, p, m, b.shared.Len()
	}
	return b.hits, b.partial, b.misses, b.entries
}

type libSession struct {
	b     *libBackend
	sess  *core.Session
	cache *dataset.SelectionCache
}

// gaugeOf renders a session's risk gauge in its wire form, field for field
// what the server's gauge handler builds under the session lock.
func gaugeOf(sess *core.Session) api.Gauge {
	g := sess.Gauge()
	out := api.Gauge{
		Alpha:           g.Alpha,
		Policy:          g.Policy,
		InitialWealth:   g.InitialWealth,
		RemainingWealth: g.RemainingWealth,
		Tests:           g.Tests,
		Discoveries:     g.Discoveries,
		Starred:         g.Starred,
		Exhausted:       g.Exhausted,
		Hypotheses:      make([]core.ReportEntry, 0, len(g.Hypotheses)),
		Rendered:        g.Render(),
	}
	for _, h := range g.Hypotheses {
		out.Hypotheses = append(out.Hypotheses, h.Entry())
	}
	return out
}

func hypResult(h *core.Hypothesis, wealth float64) opResult {
	res := opResult{wealth: wealth}
	if h != nil {
		res.hasHyp, res.hypID = true, h.ID
		res.pValue, res.alpha, res.rejected = h.Test.PValue, h.AlphaInvested, h.Rejected
	}
	return res
}

// holdoutSeed and holdoutFraction are the server's defaults for the hold-out
// split, spelled out so the library route draws the same split.
const (
	holdoutSeed     = 1
	holdoutFraction = 0.5
)

func (s *libSession) do(o *op) (opResult, time.Duration, error) {
	start := time.Now()
	res, err := s.run(o)
	return res, time.Since(start), err
}

func (s *libSession) run(o *op) (opResult, error) {
	switch o.kind {
	case opCreate:
		s.cache = s.b.shared
		if s.cache == nil {
			s.cache = dataset.NewSelectionCacheCap(s.b.table, s.b.privateCap)
		}
		sess, err := core.NewSession(s.b.table, core.Options{Selections: s.cache, Catalog: s.b.catalog})
		s.sess = sess
		return opResult{}, err
	case opDelete:
		if s.b.shared == nil {
			h, p, m := s.cache.Stats()
			s.b.hits, s.b.partial, s.b.misses = s.b.hits+h, s.b.partial+p, s.b.misses+m
			s.b.entries = s.cache.Len()
		}
		s.sess, s.cache = nil, nil
		if s.b.collect {
			runtime.GC()
		}
		return opResult{}, nil
	case opGauge:
		g := gaugeOf(s.sess)
		return opResult{gauge: &g}, nil
	case opLog:
		return opResult{extra: []float64{float64(len(s.sess.Log()))}}, nil
	case opReport:
		r := s.sess.Report(time.Now())
		return opResult{extra: []float64{float64(len(r.Hypotheses)), float64(r.Discoveries), r.RemainingWealth}}, nil
	case opHoldoutValidate:
		v, err := core.NewHoldoutValidator(s.sess.Data(), holdoutFraction, s.sess.Alpha(), rand.New(rand.NewSource(holdoutSeed)))
		if err != nil {
			return opResult{}, err
		}
		r, err := v.CompareMeans(o.attr, o.pred.pred, stats.TwoSided)
		if err != nil {
			return opResult{}, err
		}
		return opResult{extra: []float64{r.Exploration.PValue, r.Validation.PValue, boolFloat(r.Confirmed)}}, nil
	case opHoldoutReplay:
		v, err := core.NewHoldoutValidator(s.sess.Data(), holdoutFraction, s.sess.Alpha(), rand.New(rand.NewSource(holdoutSeed)))
		if err != nil {
			return opResult{}, err
		}
		r, err := v.ReplayLog(core.Options{}, core.StepsFromLog(s.sess.Log()))
		if err != nil {
			return opResult{}, err
		}
		extra := []float64{float64(r.Confirmed), float64(r.ActiveTotal)}
		for _, h := range r.Hypotheses {
			extra = append(extra, h.Exploration.PValue, h.Validation.PValue)
		}
		return opResult{extra: extra}, nil
	default:
		step := o.step()
		if step == nil {
			return opResult{}, fmt.Errorf("runner: op %s is not a step", o.kind)
		}
		res, err := s.sess.Apply(step)
		if err != nil {
			return opResult{}, err
		}
		return hypResult(res.Hypothesis, s.sess.Wealth()), nil
	}
}

func boolFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// --- client backend (handler, loopback HTTP, router) ---

// clientBackend runs scripts through internal/client. With a handlerTransport
// the requests are served in-process by a server.Handler() on a response
// recorder and only ServeHTTP is timed; without one they cross loopback HTTP
// to a child process and the whole call is timed.
type clientBackend struct {
	c  *client.Client
	ht *handlerTransport
}

func (b *clientBackend) newSession() sessionRunner { return &clientSession{b: b} }

// handlerTransport serves client requests from an http.Handler without a
// socket, remembering how long the handler took.
type handlerTransport struct {
	h    http.Handler
	last time.Duration
}

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	start := time.Now()
	t.h.ServeHTTP(rec, req)
	t.last = time.Since(start)
	return rec.Result(), nil
}

type clientSession struct {
	b  *clientBackend
	id int64
}

func entryResult(e *core.ReportEntry, wealth float64) opResult {
	res := opResult{wealth: wealth}
	if e != nil {
		res.hasHyp, res.hypID = true, e.ID
		res.pValue, res.alpha, res.rejected = e.PValue, e.AlphaInvested, e.Rejected
	}
	return res
}

func (s *clientSession) do(o *op) (opResult, time.Duration, error) {
	start := time.Now()
	res, err := s.run(context.Background(), o)
	d := time.Since(start)
	if s.b.ht != nil {
		d = s.b.ht.last
	}
	return res, d, err
}

func (s *clientSession) run(ctx context.Context, o *op) (opResult, error) {
	c := s.b.c
	switch o.kind {
	case opCreate:
		info, err := c.CreateSession(ctx, api.SessionSpec{Dataset: "census"})
		s.id = info.ID
		return opResult{}, err
	case opDelete:
		return opResult{}, c.DeleteSession(ctx, s.id)
	case opViz:
		r, err := c.CreateVisualization(ctx, s.id, api.CreateVisualizationRequest{Target: o.target, Predicate: o.pred.json})
		return entryResult(r.Hypothesis, r.RemainingWealth), err
	case opCompare:
		r, err := c.Compare(ctx, s.id, api.CompareRequest{A: o.a, B: o.b})
		return entryResult(&r.Hypothesis, r.RemainingWealth), err
	case opStepViz, opStepMeans, opStepStar:
		r, err := c.ApplyRawStep(ctx, s.id, o.raw)
		return entryResult(r.Hypothesis, r.RemainingWealth), err
	case opDerive:
		r, err := c.Derive(ctx, s.id, api.DeriveRequest{Name: o.name, Expression: o.exprJSON})
		return entryResult(r.Hypothesis, r.RemainingWealth), err
	case opJoin:
		r, err := c.Join(ctx, s.id, api.JoinRequest{Dataset: dimDataset, LeftKey: census.ColOccupation, RightKey: "occupation", Prefix: "dim_"})
		return entryResult(r.Hypothesis, r.RemainingWealth), err
	case opGroupBy:
		r, err := c.GroupBy(ctx, s.id, api.GroupByRequest{Row: o.row, Col: o.col, Predicate: o.pred.json})
		return entryResult(&r.Hypothesis, r.RemainingWealth), err
	case opGauge:
		g, err := c.Gauge(ctx, s.id)
		return opResult{gauge: &g}, err
	case opLog:
		l, err := c.Log(ctx, s.id)
		return opResult{extra: []float64{float64(l.Count)}}, err
	case opReport:
		r, err := c.Report(ctx, s.id)
		return opResult{extra: []float64{float64(len(r.Hypotheses)), float64(r.Discoveries), r.RemainingWealth}}, err
	case opHoldoutValidate:
		r, err := c.HoldoutValidate(ctx, s.id, api.HoldoutValidateRequest{Attribute: o.attr, Predicate: o.pred.json})
		return opResult{extra: []float64{r.Exploration.PValue, r.Validation.PValue, boolFloat(r.Confirmed)}}, err
	case opHoldoutReplay:
		r, err := c.HoldoutReplay(ctx, s.id, api.HoldoutReplayRequest{})
		extra := []float64{float64(r.Confirmed), float64(r.ActiveTotal)}
		for _, h := range r.Hypotheses {
			extra = append(extra, h.Exploration.PValue, h.Validation.PValue)
		}
		return opResult{extra: extra}, err
	}
	return opResult{}, fmt.Errorf("runner: unknown op kind %d", o.kind)
}

// --- catalog ---

// benchCatalog resolves the relational workload's join dataset, the way the
// server's registry does for its sessions.
type benchCatalog struct {
	table *dataset.Table
	cache *dataset.SelectionCache
}

func (c *benchCatalog) Dataset(name string) (*dataset.Table, *dataset.SelectionCache, error) {
	if name != dimDataset {
		return nil, nil, fmt.Errorf("benchmark catalog: unknown dataset %q", name)
	}
	return c.table, c.cache, nil
}

// newOccupationCatalog builds the 120-row occupation dimension the relational
// sessions join: the six census occupations plus the rest of a synthetic role
// taxonomy, each with a sector and a median pay. Most rows match no fact row,
// as a real dimension outnumbers the values live in any one table.
func newOccupationCatalog() (*benchCatalog, error) {
	const rows = 120
	sectorWheel := []string{"Clerical", "Trade", "Management", "Professional", "Commerce", "Hospitality"}
	occupations := append(make([]string, 0, rows), census.Occupations...)
	for i := len(occupations); i < rows; i++ {
		occupations = append(occupations, fmt.Sprintf("Role-%03d", i))
	}
	sectors := make([]string, rows)
	pay := make([]float64, rows)
	for i := range occupations {
		sectors[i] = sectorWheel[i%len(sectorWheel)]
		pay[i] = 30000 + float64(i%12)*5500
	}
	t, err := dataset.NewTable(
		dataset.NewCategoricalColumn("occupation", occupations),
		dataset.NewCategoricalColumn("sector", sectors),
		dataset.NewFloatColumn("median_pay", pay),
	)
	if err != nil {
		return nil, err
	}
	return &benchCatalog{table: t, cache: dataset.NewSelectionCache(t)}, nil
}
