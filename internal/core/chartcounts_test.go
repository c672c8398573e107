package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"aware/internal/dataset"
	"aware/internal/obs"
	"aware/internal/stats"
)

// This file tests that a chart is counted once: a rule-3 comparison of two
// filtered charts counted on the session's current table reads the counts
// their rule-2 tests drew, and every other comparison rescans. Either way the
// hypothesis must be bit-identical to ComparisonTestWith over the session's
// current table.

// chartTestTable has three morsels of rows, so pools of 2 and 8 split every
// counting pass: group and color are categorical (color depends on group),
// age is a byte-coded numeric column and x a wide one.
func chartTestTable(t *testing.T) *dataset.Table {
	t.Helper()
	const n = 40000
	rng := stats.NewRNG(5)
	group := make([]string, n)
	color := make([]string, n)
	age := make([]float64, n)
	x := make([]float64, n)
	for i := range group {
		g := rng.Intn(3)
		group[i] = []string{"a", "b", "c"}[g]
		color[i] = "red"
		if rng.Float64() < 0.3+0.1*float64(g) {
			color[i] = "blue"
		}
		age[i] = float64(18 + rng.Intn(60))
		x[i] = rng.NormFloat64() + 0.2*float64(g)
	}
	tab, err := dataset.NewTable(
		dataset.NewCategoricalColumn("group", group),
		dataset.NewCategoricalColumn("color", color),
		dataset.NewFloatColumn("age", age),
		dataset.NewFloatColumn("x", x),
	)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func requireSameBits(t *testing.T, label string, got, want stats.TestResult) {
	t.Helper()
	for _, f := range [][2]float64{
		{got.PValue, want.PValue}, {got.Statistic, want.Statistic},
		{got.DF, want.DF}, {got.EffectSize, want.EffectSize},
	} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			t.Fatalf("%s: test %+v, want %+v bit for bit", label, got, want)
		}
	}
}

// requireCompareMatchesScan applies CompareVisualizations{a, b} under a trace
// and holds the hypothesis to ComparisonTestWith over a fresh cache on the
// session's current table, and the step span to the counts source it names.
func requireCompareMatchesScan(t *testing.T, s *Session, a, b int, source string) {
	t.Helper()
	va, vb := s.visualizations[a-1], s.visualizations[b-1]
	want, nA, nB, err := ComparisonTestWith(dataset.NewSelectionCache(s.data), va.Target, va.Filter, vb.Filter)
	if err != nil {
		t.Fatal(err)
	}
	root := obs.NewTracer(1).Start("test")
	res, err := s.ApplyTraced(root, CompareVisualizations{A: a, B: b})
	root.End()
	if err != nil {
		t.Fatalf("compare %d and %d: %v", a, b, err)
	}
	label := va.Describe() + " vs " + vb.Describe()
	requireSameBits(t, label, res.Hypothesis.Test, want)
	if res.Hypothesis.SupportSize != nA+nB {
		t.Fatalf("%s: support %d, want %d", label, res.Hypothesis.SupportSize, nA+nB)
	}
	if got := root.JSON().Children[0].Attrs["counts"]; got != source {
		t.Fatalf("%s: step span counts=%v, want %s", label, got, source)
	}
}

func addCharts(t *testing.T, s *Session, target string, filters ...dataset.Predicate) {
	t.Helper()
	for _, f := range filters {
		if _, err := s.Apply(AddVisualization{Target: target, Filter: f}); err != nil {
			t.Fatal(err)
		}
	}
}

var (
	groupA    = dataset.Equals{Column: "group", Value: "a"}
	notGroupA = dataset.Not{Inner: groupA}
	midAge    = dataset.Range{Column: "age", Low: 30, High: 50}
)

// TestCompareReadsChartCounts covers a categorical target and both kinds of
// binned numeric target, a filtered chart against an unfiltered one, and
// pools of 1, 2 and 8 workers.
func TestCompareReadsChartCounts(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		pool := dataset.NewPool(workers)
		t.Cleanup(pool.Close)
		for _, target := range []string{"color", "age", "x"} {
			s, err := NewSession(chartTestTable(t), Options{Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			addCharts(t, s, target, groupA, notGroupA, nil, midAge)
			requireCompareMatchesScan(t, s, 1, 2, "chart")
			requireCompareMatchesScan(t, s, 2, 4, "chart")
			requireCompareMatchesScan(t, s, 1, 3, "scan") // chart 3 is unfiltered
			requireCompareMatchesScan(t, s, 3, 4, "scan")
		}
	}
}

// TestCompareRescansAfterDeriveAndJoin: a derive or a join moves the session
// to a new table, so charts drawn before it are rescanned. The join drops
// group c (the dimension has no row for it), so a stale count would differ.
func TestCompareRescansAfterDeriveAndJoin(t *testing.T) {
	dim, err := dataset.NewTable(
		dataset.NewCategoricalColumn("name", []string{"a", "b"}),
		dataset.NewFloatColumn("weight", []float64{1, 2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	cat := &stepTestCatalog{
		tables: map[string]*dataset.Table{"groups": dim},
		caches: map[string]*dataset.SelectionCache{"groups": dataset.NewSelectionCache(dim)},
	}
	tab := chartTestTable(t)
	s, err := NewSession(tab, Options{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	addCharts(t, s, "color", groupA, notGroupA)
	mustApply(t, s, DeriveColumn{Name: "x_bucket", Expr: dataset.Bucket{Arg: dataset.Col{Name: "x"}, Width: 1}})
	requireCompareMatchesScan(t, s, 1, 2, "scan")
	addCharts(t, s, "color", groupA, notGroupA)
	requireCompareMatchesScan(t, s, 3, 4, "chart")
	mustApply(t, s, JoinDataset{Dataset: "groups", LeftKey: "group", RightKey: "name", Prefix: "g_"})
	if s.Data().NumRows() >= tab.NumRows() {
		t.Fatalf("the join kept %d of %d rows; the test needs it to drop group c", s.Data().NumRows(), tab.NumRows())
	}
	requireCompareMatchesScan(t, s, 3, 4, "scan")
	addCharts(t, s, "color", groupA, notGroupA)
	requireCompareMatchesScan(t, s, 5, 6, "chart")
}

// compareSteps is a log with compares served from chart counts (two
// categorical, one binned) and one that must rescan (an unfiltered chart).
func compareSteps() []Step {
	return []Step{
		AddVisualization{Target: "color", Filter: groupA},
		AddVisualization{Target: "color", Filter: notGroupA},
		CompareVisualizations{A: 1, B: 2},
		AddVisualization{Target: "x", Filter: groupA},
		AddVisualization{Target: "x", Filter: midAge},
		CompareVisualizations{A: 3, B: 4},
		AddVisualization{Target: "color"},
		CompareVisualizations{A: 5, B: 1},
		AddVisualization{Target: "color", Filter: midAge},
		CompareVisualizations{A: 2, B: 6},
	}
}

// requireReplayedComparesMatchScan holds every compare hypothesis of a
// replayed session (its journal, or the test results a hold-out half
// reported) to ComparisonTestWith over the table the replay ran on.
func requireReplayedComparesMatchScan(t *testing.T, tab *dataset.Table, steps []Step, log []AppliedStep, result func(hypothesisID int) (stats.TestResult, int)) {
	t.Helper()
	var charts []AddVisualization
	compares := 0
	for _, entry := range log {
		switch st := entry.Step.(type) {
		case AddVisualization:
			charts = append(charts, st)
		case CompareVisualizations:
			a, b := charts[st.A-1], charts[st.B-1]
			want, nA, nB, err := ComparisonTestWith(dataset.NewSelectionCache(tab), a.Target, a.Filter, b.Filter)
			if err != nil {
				t.Fatal(err)
			}
			got, support := result(entry.HypothesisID)
			requireSameBits(t, "replayed compare", got, want)
			if support >= 0 && support != nA+nB {
				t.Fatalf("replayed compare support %d, want %d", support, nA+nB)
			}
			compares++
		}
	}
	if want := 4; compares != want || len(log) != len(steps) {
		t.Fatalf("replayed %d of %d steps with %d compares, want all with %d", len(log), len(steps), compares, want)
	}
}

func TestReplayedComparesMatchScan(t *testing.T) {
	tab := chartTestTable(t)
	steps := compareSteps()
	s, err := Replay(tab, Options{}, steps)
	if err != nil {
		t.Fatal(err)
	}
	requireReplayedComparesMatchScan(t, tab, steps, s.Log(), func(id int) (stats.TestResult, int) {
		h := s.hypotheses[id-1]
		return h.Test, h.SupportSize
	})

	hv, err := NewHoldoutValidator(tab, 0.5, 0.05, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	replay, err := hv.ReplayLog(Options{}, steps)
	if err != nil {
		t.Fatal(err)
	}
	if replay.ExplorationApplied != len(steps) || replay.ValidationApplied != len(steps) {
		t.Fatalf("hold-out halves applied %d and %d of %d steps", replay.ExplorationApplied, replay.ValidationApplied, len(steps))
	}
	byID := make(map[int]HypothesisValidation)
	for _, h := range replay.Hypotheses {
		byID[h.HypothesisID] = h
	}
	// ReplayLog reports no support sizes; the journal is the exploration
	// replay's, identical in shape to the validation replay's.
	requireReplayedComparesMatchScan(t, hv.Exploration(), steps, s.Log(), func(id int) (stats.TestResult, int) {
		return byID[id].Exploration, -1
	})
	requireReplayedComparesMatchScan(t, hv.Validation(), steps, s.Log(), func(id int) (stats.TestResult, int) {
		return byID[id].Validation, -1
	})
}

// TestFailedCompareLeavesSessionUnchanged: a compare that fails, whether on
// lookup, on mismatched targets, or in the χ² test over chart counts, leaves
// wealth, hypotheses, journal and chart links as they were, and reports the
// error a rescan reports.
func TestFailedCompareLeavesSessionUnchanged(t *testing.T) {
	s, err := NewSession(chartTestTable(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	red := dataset.Equals{Column: "color", Value: "red"}
	addCharts(t, s, "color", red, dataset.And{Terms: []dataset.Predicate{red, groupA}})
	addCharts(t, s, "x", groupA)
	// Charts 1 and 2 show only red rows: their 2x2 table has one empty
	// column, which the χ² test refuses.
	_, _, _, scanErr := ComparisonTestWith(dataset.NewSelectionCache(s.Data()), "color", red, s.visualizations[1].Filter)
	if !errors.Is(scanErr, stats.ErrDomain) {
		t.Fatalf("scan error %v, want a domain error", scanErr)
	}
	cases := []struct {
		step Step
		want error
	}{
		{CompareVisualizations{A: 1, B: 99}, ErrUnknownVisualization},
		{CompareVisualizations{A: 1, B: 3}, ErrNotComplementary},
		{CompareVisualizations{A: 1, B: 2}, stats.ErrDomain},
	}
	for _, tc := range cases {
		wealth, hyps, journal := s.Wealth(), len(s.hypotheses), len(s.journal)
		links := []int{s.visualizations[0].HypothesisID, s.visualizations[1].HypothesisID, s.visualizations[2].HypothesisID}
		_, err := s.Apply(tc.step)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%+v: error %v, want %v", tc.step, err, tc.want)
		}
		if tc.want == stats.ErrDomain {
			want := fmt.Sprintf("core: comparison hypothesis for %q vs %q: %v", s.visualizations[0].Describe(), s.visualizations[1].Describe(), scanErr)
			if err.Error() != want {
				t.Fatalf("error %q, want %q", err, want)
			}
		}
		if s.Wealth() != wealth || len(s.hypotheses) != hyps || len(s.journal) != journal {
			t.Fatalf("%+v changed the session", tc.step)
		}
		for i, id := range links {
			if s.visualizations[i].HypothesisID != id {
				t.Fatalf("%+v relinked chart %d", tc.step, i+1)
			}
		}
	}
}
