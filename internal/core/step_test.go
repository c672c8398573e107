package core

import (
	"errors"
	"testing"

	"aware/internal/dataset"
	"aware/internal/stats"
)

// stepTestTable builds a small deterministic table with a planted association
// (group b skews red and has a higher x) plus a constant column for the
// zero-width-bin regression test.
func stepTestTable(t *testing.T) *dataset.Table {
	t.Helper()
	const n = 600
	rng := stats.NewRNG(42)
	group := make([]string, n)
	color := make([]string, n)
	x := make([]float64, n)
	constant := make([]float64, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			group[i] = "a"
			x[i] = rng.NormFloat64()
			if rng.Float64() < 0.5 {
				color[i] = "red"
			} else {
				color[i] = "blue"
			}
		} else {
			group[i] = "b"
			x[i] = 1.5 + rng.NormFloat64()
			if rng.Float64() < 0.8 {
				color[i] = "red"
			} else {
				color[i] = "blue"
			}
		}
		constant[i] = 7
	}
	tab, err := dataset.NewTable(
		dataset.NewCategoricalColumn("group", group),
		dataset.NewCategoricalColumn("color", color),
		dataset.NewFloatColumn("x", x),
		dataset.NewFloatColumn("constant", constant),
	)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func mustSession(t *testing.T, tab *dataset.Table) *Session {
	t.Helper()
	s, err := NewSession(tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustApply applies one step and fails the test on error.
func mustApply(t *testing.T, s *Session, step Step) StepResult {
	t.Helper()
	res, err := s.Apply(step)
	if err != nil {
		t.Fatalf("%s: %v", step.Kind(), err)
	}
	return res
}

// scriptedSteps is a fixed exploration exercising every step kind.
func scriptedSteps() []Step {
	return []Step{
		AddVisualization{Target: "color", Filter: dataset.Equals{Column: "group", Value: "b"}},
		AddVisualization{Target: "color", Filter: dataset.Not{Inner: dataset.Equals{Column: "group", Value: "b"}}},
		CompareVisualizations{A: 1, B: 2},
		AddVisualization{Target: "x", Filter: dataset.Equals{Column: "group", Value: "b"}},
		AddVisualization{Target: "x", Filter: dataset.Equals{Column: "group", Value: "a"}},
		CompareMeans{Attribute: "x", A: 3, B: 4},
		CompareDistributions{Attribute: "x", A: 3, B: 4},
		AddVisualization{Target: "color"}, // unfiltered: descriptive
		TestAgainstExpectation{Visualization: 5, Expected: map[string]float64{"red": 3, "blue": 1}},
		Star{Hypothesis: 1, Starred: true},
		AddVisualization{Target: "color", Filter: dataset.Equals{Column: "group", Value: "a"}},
		DeclareDescriptive{Visualization: 6},
		Star{Hypothesis: 1, Starred: false},
		Star{Hypothesis: 2, Starred: true},
	}
}

// fakeStep trips Apply's closed-set check: it satisfies Kind but is not one of
// the seven step kinds. (Outside the package this cannot even compile, since
// isStep is unexported.)
type fakeStep struct{}

func (fakeStep) Kind() string { return "fake" }
func (fakeStep) isStep()      {}

// TestApplyUnknownAndMalformedSteps is the table-driven satellite: unknown or
// zero steps return ErrUnknownStep, malformed-but-known steps return their
// domain errors, and every failure leaves the session (and its journal)
// untouched.
func TestApplyUnknownAndMalformedSteps(t *testing.T) {
	tab := stepTestTable(t)
	cases := []struct {
		name    string
		step    Step
		wantErr error
	}{
		{"nil step", nil, ErrUnknownStep},
		{"foreign step type", fakeStep{}, ErrUnknownStep},
		{"zero add_visualization", AddVisualization{}, dataset.ErrColumnNotFound},
		{"unknown target", AddVisualization{Target: "missing"}, dataset.ErrColumnNotFound},
		{"zero compare", CompareVisualizations{}, ErrUnknownVisualization},
		{"unknown viz ids", CompareVisualizations{A: 7, B: 8}, ErrUnknownVisualization},
		{"zero compare_means", CompareMeans{}, ErrUnknownVisualization},
		{"zero compare_distributions", CompareDistributions{}, ErrUnknownVisualization},
		{"zero expectation", TestAgainstExpectation{}, ErrUnknownVisualization},
		{"zero declare_descriptive", DeclareDescriptive{}, ErrUnknownVisualization},
		{"zero star", Star{}, ErrUnknownHypothesis},
		{"unknown hypothesis", Star{Hypothesis: 3, Starred: true}, ErrUnknownHypothesis},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := mustSession(t, tab)
			mustApply(t, s, AddVisualization{Target: "color", Filter: dataset.Equals{Column: "group", Value: "b"}})
			wealthBefore := s.Wealth()
			logBefore := len(s.Log())
			_, err := s.Apply(tc.step)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Apply(%v) = %v, want %v", tc.step, err, tc.wantErr)
			}
			if s.Wealth() != wealthBefore {
				t.Error("failed step changed the wealth")
			}
			if len(s.Log()) != logBefore {
				t.Error("failed step was journaled")
			}
			if len(s.Hypotheses()) != 1 || len(s.visualizations) != 1 {
				t.Error("failed step mutated session state")
			}
		})
	}
}

// TestApplyAtomicOnDegenerateFilter checks the stronger atomicity property:
// a step that fails midway (the filter selects nothing, so the χ² test
// errors) must not leave a half-created visualization behind, and a later
// retry must see unchanged IDs.
func TestApplyAtomicOnDegenerateFilter(t *testing.T) {
	s := mustSession(t, stepTestTable(t))
	empty := dataset.Equals{Column: "group", Value: "no-such-group"}
	if _, err := s.Apply(AddVisualization{Target: "color", Filter: empty}); err == nil {
		t.Fatal("expected the empty sub-population to fail")
	}
	if len(s.visualizations) != 0 || len(s.Hypotheses()) != 0 || len(s.Log()) != 0 {
		t.Fatalf("failed step left state behind: %d viz, %d hyp, %d log entries",
			len(s.visualizations), len(s.Hypotheses()), len(s.Log()))
	}
	viz := mustApply(t, s, AddVisualization{Target: "color", Filter: dataset.Equals{Column: "group", Value: "b"}}).Visualization
	if viz.ID != 1 {
		t.Errorf("first successful visualization got ID %d, want 1", viz.ID)
	}
}

// TestReferenceCountsConstantColumn is the zero-width-bin regression test: a
// constant numeric column used to divide by a zero bin width.
func TestReferenceCountsConstantColumn(t *testing.T) {
	tab := stepTestTable(t)
	sub, err := tab.View(dataset.Equals{Column: "group", Value: "b"})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := referenceCounts(sub, "constant", nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != sub.NumRows() {
		t.Errorf("counts sum to %d, want %d", total, sub.NumRows())
	}
	// Everything lands in one bin: the values are identical.
	nonZero := 0
	for _, c := range counts {
		if c > 0 {
			nonZero++
		}
	}
	if nonZero != 1 {
		t.Errorf("constant column spread over %d bins, want 1 (counts %v)", nonZero, counts)
	}
}

// TestZeroWidthBinGuard exercises the width <= 0 fallback directly: a
// reference whose numeric range is one denormal wide underflows the
// per-bin width to exactly zero.
func TestZeroWidthBinGuard(t *testing.T) {
	const tiny = 5e-324 // smallest positive denormal: (hi-lo)/10 == 0
	vals := []float64{0, tiny, 0, tiny}
	tab, err := dataset.NewTable(
		dataset.NewFloatColumn("v", vals),
		dataset.NewCategoricalColumn("g", []string{"a", "a", "b", "b"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	full, err := tab.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := referenceCounts(full, "v", nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(vals) {
		t.Errorf("counts sum to %d, want %d (counts %v)", total, len(vals), counts)
	}
}
