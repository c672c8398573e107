package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"aware/internal/api"
	"aware/internal/census"
	"aware/internal/client"
	"aware/internal/core"
	"aware/internal/dataset"
	"aware/internal/server"
)

const highEarners = `{"type": "equals", "column": "salary_over_50k", "value": "true"}`

// startServer serves a 2,000-row census and a unique-key occupations
// dimension from an in-process awared.
func startServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	table, err := census.Generate(census.Config{Rows: 2000, Seed: 7, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().Register("census", table); err != nil {
		t.Fatal(err)
	}
	sectors := make([]string, len(census.Occupations))
	for i := range sectors {
		sectors[i] = []string{"public", "private"}[i%2]
	}
	dim, err := dataset.NewTable(
		dataset.NewCategoricalColumn("occupation", census.Occupations),
		dataset.NewCategoricalColumn("sector", sectors),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().Register("occupations", dim); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts
}

func mustPredicate(t *testing.T, raw string) dataset.Predicate {
	t.Helper()
	p, err := dataset.UnmarshalPredicate([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// readLog returns the session's GET /log body as served.
func readLog(t *testing.T, ts *httptest.Server, id int64) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s%s/sessions/%d/log", ts.URL, api.Prefix, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET log: status %d, %v", resp.StatusCode, err)
	}
	return raw
}

// TestTypedCallsJournalTheirRawStep runs each typed call on one session and
// the core.MarshalStep bytes of its step through ApplyRawStep on a twin
// session. After every call the two logs must be byte-identical, and the
// hypothesis and remaining wealth each call returns must be equal.
func TestTypedCallsJournalTheirRawStep(t *testing.T) {
	ts := startServer(t)
	c := client.New(ts.URL)
	ctx := context.Background()
	typed, err := c.CreateSession(ctx, api.SessionSpec{Dataset: "census"})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := c.CreateSession(ctx, api.SessionSpec{Dataset: "census"})
	if err != nil {
		t.Fatal(err)
	}
	notHighEarners := `{"type": "not", "term": ` + highEarners + `}`
	bucket := `{"expr": "bucket", "width": 10, "arg": {"expr": "col", "column": "age"}}`
	expr, err := dataset.UnmarshalExpr([]byte(bucket))
	if err != nil {
		t.Fatal(err)
	}
	join := api.JoinRequest{Dataset: "occupations", LeftKey: "occupation", RightKey: "occupation", Prefix: "dim_"}

	// Each call returns the hypothesis and remaining wealth its typed result
	// carries; ok is false for Star, whose result carries neither.
	type outcome struct {
		hyp    *core.ReportEntry
		wealth float64
		ok     bool
	}
	cases := []struct {
		name string
		call func() (outcome, error)
		step core.Step
	}{
		{"CreateVisualization", func() (outcome, error) {
			r, err := c.CreateVisualization(ctx, typed.ID, api.CreateVisualizationRequest{Target: "gender", Predicate: json.RawMessage(highEarners)})
			return outcome{r.Hypothesis, r.RemainingWealth, true}, err
		}, core.AddVisualization{Target: "gender", Filter: mustPredicate(t, highEarners)}},
		{"CreateVisualization complement", func() (outcome, error) {
			r, err := c.CreateVisualization(ctx, typed.ID, api.CreateVisualizationRequest{Target: "gender", Predicate: json.RawMessage(notHighEarners)})
			return outcome{r.Hypothesis, r.RemainingWealth, true}, err
		}, core.AddVisualization{Target: "gender", Filter: mustPredicate(t, notHighEarners)}},
		{"CreateVisualization descriptive", func() (outcome, error) {
			r, err := c.CreateVisualization(ctx, typed.ID, api.CreateVisualizationRequest{Target: "age"})
			return outcome{r.Hypothesis, r.RemainingWealth, true}, err
		}, core.AddVisualization{Target: "age"}},
		{"Compare", func() (outcome, error) {
			r, err := c.Compare(ctx, typed.ID, api.CompareRequest{A: 1, B: 2})
			return outcome{&r.Hypothesis, r.RemainingWealth, true}, err
		}, core.CompareVisualizations{A: 1, B: 2}},
		{"Compare MeansOf", func() (outcome, error) {
			r, err := c.Compare(ctx, typed.ID, api.CompareRequest{A: 1, B: 2, MeansOf: "age"})
			return outcome{&r.Hypothesis, r.RemainingWealth, true}, err
		}, core.CompareMeans{Attribute: "age", A: 1, B: 2}},
		{"Compare DistributionsOf", func() (outcome, error) {
			r, err := c.Compare(ctx, typed.ID, api.CompareRequest{A: 1, B: 2, DistributionsOf: "hours_per_week"})
			return outcome{&r.Hypothesis, r.RemainingWealth, true}, err
		}, core.CompareDistributions{Attribute: "hours_per_week", A: 1, B: 2}},
		{"Derive", func() (outcome, error) {
			r, err := c.Derive(ctx, typed.ID, api.DeriveRequest{Name: "age_decade", Expression: json.RawMessage(bucket)})
			return outcome{r.Hypothesis, r.RemainingWealth, true}, err
		}, core.DeriveColumn{Name: "age_decade", Expr: expr}},
		{"Join", func() (outcome, error) {
			r, err := c.Join(ctx, typed.ID, join)
			return outcome{r.Hypothesis, r.RemainingWealth, true}, err
		}, core.JoinDataset{Dataset: join.Dataset, LeftKey: join.LeftKey, RightKey: join.RightKey, Prefix: join.Prefix}},
		{"GroupBy", func() (outcome, error) {
			r, err := c.GroupBy(ctx, typed.ID, api.GroupByRequest{Row: "dim_sector", Col: "age_decade", Predicate: json.RawMessage(highEarners)})
			return outcome{&r.Hypothesis, r.RemainingWealth, true}, err
		}, core.GroupByHypothesis{RowAttr: "dim_sector", ColAttr: "age_decade", Filter: mustPredicate(t, highEarners)}},
		{"Star", func() (outcome, error) {
			r, err := c.Star(ctx, typed.ID, 4, true)
			if err == nil && (r.ID != 4 || !r.Starred) {
				t.Errorf("Star returned %+v, want hypothesis 4 starred", r)
			}
			return outcome{}, err
		}, core.Star{Hypothesis: 4, Starred: true}},
	}
	for _, tc := range cases {
		got, err := tc.call()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		raw, err := core.MarshalStep(tc.step)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.ApplyRawStep(ctx, twin.ID, raw)
		if err != nil {
			t.Fatalf("%s: raw step %s: %v", tc.name, raw, err)
		}
		if typedLog, twinLog := readLog(t, ts, typed.ID), readLog(t, ts, twin.ID); !bytes.Equal(typedLog, twinLog) {
			t.Fatalf("%s: logs differ:\ntyped: %s\nraw:   %s", tc.name, typedLog, twinLog)
		}
		if !got.ok {
			continue
		}
		if got.wealth != want.RemainingWealth {
			t.Errorf("%s: remaining wealth %v, raw step %v", tc.name, got.wealth, want.RemainingWealth)
		}
		if got.hyp == nil && want.Hypothesis != nil || got.hyp != nil && (want.Hypothesis == nil || *got.hyp != *want.Hypothesis) {
			t.Errorf("%s: hypothesis %+v, raw step %+v", tc.name, got.hyp, want.Hypothesis)
		}
	}
}

// TestStarFalseUnstars stars a hypothesis and unstars it again: the second
// call must send "starred": false, which the step codec would otherwise read
// as true.
func TestStarFalseUnstars(t *testing.T) {
	ts := startServer(t)
	c := client.New(ts.URL)
	ctx := context.Background()
	info, err := c.CreateSession(ctx, api.SessionSpec{Dataset: "census"})
	if err != nil {
		t.Fatal(err)
	}
	viz, err := c.CreateVisualization(ctx, info.ID, api.CreateVisualizationRequest{Target: "gender", Predicate: json.RawMessage(highEarners)})
	if err != nil {
		t.Fatal(err)
	}
	hyp := viz.Hypothesis.ID
	starred := func() bool {
		g, err := c.Gauge(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range g.Hypotheses {
			if h.ID == hyp {
				return h.Starred
			}
		}
		t.Fatalf("hypothesis %d missing from the gauge", hyp)
		return false
	}
	for _, want := range []bool{true, false} {
		r, err := c.Star(ctx, info.ID, hyp, want)
		if err != nil {
			t.Fatal(err)
		}
		if r.ID != hyp || r.Starred != want {
			t.Errorf("Star(%v) returned %+v", want, r)
		}
		if got := starred(); got != want {
			t.Errorf("after Star(%v) the gauge reads starred = %v", want, got)
		}
	}
}

// TestCompareRefusesMeansAndDistributions: a compare naming both a means and
// a distributions attribute is an error, and no request is sent.
func TestCompareRefusesMeansAndDistributions(t *testing.T) {
	ts := startServer(t)
	var calls []client.Call
	c := client.New(ts.URL, client.WithObserver(func(call client.Call) { calls = append(calls, call) }))
	_, err := c.Compare(context.Background(), 1, api.CompareRequest{A: 1, B: 2, MeansOf: "age", DistributionsOf: "age"})
	if err == nil {
		t.Fatal("Compare with MeansOf and DistributionsOf succeeded")
	}
	if len(calls) != 0 {
		t.Errorf("Compare sent %d requests: %+v", len(calls), calls)
	}
}
