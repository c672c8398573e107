package core_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"aware/internal/census"
	"aware/internal/core"
	"aware/internal/dataset"
	"aware/internal/investing"
	"aware/internal/stats"
)

// testCensus builds a moderately sized census table shared by the tests.
func testCensus(t *testing.T) *dataset.Table {
	t.Helper()
	tab, err := census.Generate(census.Config{Rows: 8000, Seed: 3, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func newSession(t *testing.T, tab *dataset.Table) *core.Session {
	t.Helper()
	s, err := core.NewSession(tab, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustApply applies one step and fails the test on error.
func mustApply(t *testing.T, s *core.Session, step core.Step) core.StepResult {
	t.Helper()
	res, err := s.Apply(step)
	if err != nil {
		t.Fatalf("%s: %v", step.Kind(), err)
	}
	return res
}

func TestNewSessionDefaultsAndValidation(t *testing.T) {
	tab := testCensus(t)
	s := newSession(t, tab)
	if s.Alpha() != 0.05 {
		t.Errorf("default alpha = %v", s.Alpha())
	}
	if s.PolicyName() != "epsilon-hybrid(0.5)" {
		t.Errorf("default policy = %q", s.PolicyName())
	}
	if math.Abs(s.Wealth()-0.05*0.95) > 1e-12 {
		t.Errorf("initial wealth = %v", s.Wealth())
	}
	if s.Data() != tab {
		t.Error("Data() should return the table")
	}
	if _, err := core.NewSession(nil, core.Options{}); err == nil {
		t.Error("expected error for nil dataset")
	}
	if _, err := core.NewSession(tab, core.Options{Alpha: 2}); err == nil {
		t.Error("expected error for invalid alpha")
	}
	if _, err := core.NewSession(tab, core.Options{TargetPower: 1.5}); err == nil {
		t.Error("expected error for invalid power")
	}
}

func TestRule1UnfilteredVisualizationIsDescriptive(t *testing.T) {
	s := newSession(t, testCensus(t))
	res := mustApply(t, s, core.AddVisualization{Target: census.ColGender})
	viz, hyp := res.Visualization, res.Hypothesis
	if hyp != nil {
		t.Error("rule 1: unfiltered visualization must not create a hypothesis")
	}
	if viz.Filter != nil {
		t.Error("visualization should be unfiltered")
	}
	if viz.Describe() != census.ColGender {
		t.Errorf("Describe = %q", viz.Describe())
	}
	if s.Wealth() != s.Gauge().InitialWealth {
		t.Error("descriptive visualization must not consume wealth")
	}
	if len(s.Hypotheses()) != 0 {
		t.Error("no hypotheses should be tracked")
	}
	hist, err := viz.Histogram(s.Data())
	if err != nil || len(hist) == 0 {
		t.Errorf("Histogram: %v, %v", hist, err)
	}
}

func TestRule2FilteredVisualizationCreatesHypothesis(t *testing.T) {
	s := newSession(t, testCensus(t))
	// Figure 1 (B): gender distribution filtered to salary > 50k.
	filter := dataset.Equals{Column: census.ColSalaryOver50K, Value: "true"}
	res := mustApply(t, s, core.AddVisualization{Target: census.ColGender, Filter: filter})
	viz, hyp := res.Visualization, res.Hypothesis
	if hyp == nil {
		t.Fatal("rule 2: filtered visualization must create a hypothesis")
	}
	if hyp.Source != core.SourceRule2 {
		t.Errorf("source = %v", hyp.Source)
	}
	if viz.HypothesisID != hyp.ID {
		t.Error("visualization should link to its hypothesis")
	}
	if !strings.Contains(hyp.Null, "=") || !strings.Contains(hyp.Alternative, "<>") {
		t.Errorf("descriptions: %q / %q", hyp.Null, hyp.Alternative)
	}
	// The planted gender-salary correlation is strong; the default hypothesis
	// should be rejected and wealth should grow by omega.
	if !hyp.Rejected {
		t.Errorf("expected a discovery, p = %v alpha = %v", hyp.Test.PValue, hyp.AlphaInvested)
	}
	if s.Wealth() <= s.Gauge().InitialWealth {
		t.Error("a rejection should increase wealth")
	}
	if hyp.SupportSize <= 0 || hyp.SupportSize >= hyp.PopulationSize {
		t.Errorf("support = %d, population = %d", hyp.SupportSize, hyp.PopulationSize)
	}
	if hyp.EffectLabel() == "" {
		t.Error("effect label missing")
	}
}

func TestRule3ComparisonSupersedesRule2(t *testing.T) {
	s := newSession(t, testCensus(t))
	rich := dataset.Equals{Column: census.ColSalaryOver50K, Value: "true"}
	poor := dataset.Not{Inner: rich}
	// Figure 1 (B) and (C): gender | rich and gender | not rich side by side.
	resB := mustApply(t, s, core.AddVisualization{Target: census.ColGender, Filter: rich})
	resC := mustApply(t, s, core.AddVisualization{Target: census.ColGender, Filter: poor})
	vizB, hypB := resB.Visualization, resB.Hypothesis
	vizC, hypC := resC.Visualization, resC.Hypothesis
	comparison := mustApply(t, s, core.CompareVisualizations{A: vizB.ID, B: vizC.ID}).Hypothesis
	if comparison.Source != core.SourceRule3 {
		t.Errorf("source = %v", comparison.Source)
	}
	if hypB.Status != core.StatusSuperseded || hypC.Status != core.StatusSuperseded {
		t.Error("rule-2 hypotheses should be superseded by the comparison")
	}
	if comparison.Status != core.StatusActive {
		t.Error("comparison should be active")
	}
	// Active hypotheses: only the comparison.
	active := s.ActiveHypotheses()
	if len(active) != 1 || active[0].ID != comparison.ID {
		t.Errorf("active hypotheses = %v", active)
	}
	// All three consumed budget: decisions are never rolled back.
	if len(s.Hypotheses()) != 3 {
		t.Errorf("total hypotheses = %d", len(s.Hypotheses()))
	}
	// Mismatched targets are rejected.
	vizAge := mustApply(t, s, core.AddVisualization{Target: census.ColAge}).Visualization
	if _, err := s.Apply(core.CompareVisualizations{A: vizB.ID, B: vizAge.ID}); !errors.Is(err, core.ErrNotComplementary) {
		t.Error("expected core.ErrNotComplementary")
	}
	if _, err := s.Apply(core.CompareVisualizations{A: 99, B: vizB.ID}); !errors.Is(err, core.ErrUnknownVisualization) {
		t.Error("expected core.ErrUnknownVisualization")
	}
}

func TestFigure1WorkflowEndToEnd(t *testing.T) {
	// Reproduces the Section 2.4 mapping of the example session to hypotheses
	// m1, m1', m2, m3, m4'.
	tab := testCensus(t)
	s := newSession(t, tab)

	// Step A: gender over the whole data — descriptive.
	if hypA := mustApply(t, s, core.AddVisualization{Target: census.ColGender}).Hypothesis; hypA != nil {
		t.Fatalf("step A: %v", hypA)
	}

	// Step B: gender | salary>50k — hypothesis m1.
	rich := dataset.Equals{Column: census.ColSalaryOver50K, Value: "true"}
	stepB := mustApply(t, s, core.AddVisualization{Target: census.ColGender, Filter: rich})
	vizB, m1 := stepB.Visualization, stepB.Hypothesis
	if m1 == nil {
		t.Fatal("step B created no hypothesis")
	}

	// Step C: gender | not(salary>50k) next to B — m1' supersedes m1.
	vizC := mustApply(t, s, core.AddVisualization{Target: census.ColGender, Filter: dataset.Not{Inner: rich}}).Visualization
	m1prime := mustApply(t, s, core.CompareVisualizations{A: vizB.ID, B: vizC.ID}).Hypothesis
	if m1.Status != core.StatusSuperseded {
		t.Error("m1 should be superseded by m1'")
	}

	// Step D: marital status | PhD — hypothesis m2.
	phd := dataset.Equals{Column: census.ColEducation, Value: "PhD"}
	m2 := mustApply(t, s, core.AddVisualization{Target: census.ColMaritalStatus, Filter: phd}).Hypothesis
	if m2 == nil {
		t.Fatal("step D created no hypothesis")
	}

	// Step E: salary | PhD and never married — hypothesis m3.
	phdSingle := dataset.And{Terms: []dataset.Predicate{phd, dataset.Equals{Column: census.ColMaritalStatus, Value: "Never-Married"}}}
	if m3 := mustApply(t, s, core.AddVisualization{Target: census.ColSalaryOver50K, Filter: phdSingle}).Hypothesis; m3 == nil {
		t.Fatal("step E created no hypothesis")
	}

	// Step F: the user compares the age distributions of high and low earners
	// within the chain and overrides the default with a t-test on the mean.
	chainRich := dataset.And{Terms: []dataset.Predicate{phdSingle, rich}}
	chainPoor := dataset.And{Terms: []dataset.Predicate{phdSingle, dataset.Not{Inner: rich}}}
	stepF1 := mustApply(t, s, core.AddVisualization{Target: census.ColAge, Filter: chainRich})
	stepF2 := mustApply(t, s, core.AddVisualization{Target: census.ColAge, Filter: chainPoor})
	vizF1, m4 := stepF1.Visualization, stepF1.Hypothesis
	vizF2, m4b := stepF2.Visualization, stepF2.Hypothesis
	if m4 == nil || m4b == nil {
		t.Fatal("step F created no hypotheses")
	}
	m4prime := mustApply(t, s, core.CompareMeans{Attribute: census.ColAge, A: vizF1.ID, B: vizF2.ID}).Hypothesis
	if m4.Status != core.StatusSuperseded || m4b.Status != core.StatusSuperseded {
		t.Error("default age hypotheses should be superseded by the t-test")
	}
	if m4prime.Test.Method != "Welch two-sample t-test" {
		t.Errorf("override method = %q", m4prime.Test.Method)
	}

	// The user decides m2 and m3 were stepping stones and deletes them.
	if _, err := s.Apply(core.DeclareDescriptive{Visualization: 4}); err != nil { // viz 4 = marital | PhD
		t.Fatal(err)
	}
	if m2.Status != core.StatusDeleted {
		t.Errorf("m2 status = %v", m2.Status)
	}

	// Gauge accounting.
	g := s.Gauge()
	wantActive := 0
	for _, h := range s.Hypotheses() {
		if h.Status == core.StatusActive {
			wantActive++
		}
	}
	if g.Tests != wantActive {
		t.Errorf("gauge tests = %d, want %d", g.Tests, wantActive)
	}
	if g.RemainingWealth != s.Wealth() {
		t.Error("gauge wealth mismatch")
	}
	if !strings.Contains(g.Render(), "risk gauge") {
		t.Error("Render missing header")
	}
	if !strings.Contains(g.Render(), "[superseded]") || !strings.Contains(g.Render(), "[deleted]") {
		t.Error("Render should flag superseded and deleted hypotheses")
	}
	// m1' should remain among the discoveries (the gender/salary association
	// is real and strong in the synthetic census).
	found := false
	for _, d := range s.Discoveries() {
		if d.ID == m1prime.ID {
			found = true
		}
	}
	if !found {
		t.Error("m1' should be a discovery")
	}
}

func TestDecisionsNeverChangeAcrossSessionActions(t *testing.T) {
	s := newSession(t, testCensus(t))
	rich := dataset.Equals{Column: census.ColSalaryOver50K, Value: "true"}
	first := mustApply(t, s, core.AddVisualization{Target: census.ColGender, Filter: rich}).Hypothesis
	firstRejected := first.Rejected
	firstP := first.Test.PValue
	// Perform a series of further actions.
	for _, edu := range []string{"HS", "Bachelor", "Master", "PhD"} {
		mustApply(t, s, core.AddVisualization{Target: census.ColMaritalStatus, Filter: dataset.Equals{Column: census.ColEducation, Value: edu}})
	}
	if first.Rejected != firstRejected || first.Test.PValue != firstP {
		t.Error("earlier decision changed after later tests")
	}
}

func TestTestAgainstExpectation(t *testing.T) {
	s := newSession(t, testCensus(t))
	viz := mustApply(t, s, core.AddVisualization{Target: census.ColGender}).Visualization
	// The user expected many more men than women (rule 1's escape hatch).
	hyp := mustApply(t, s, core.TestAgainstExpectation{Visualization: viz.ID, Expected: map[string]float64{"Male": 3, "Female": 1, "Other": 0.05}}).Hypothesis
	if hyp.Source != core.SourceUser {
		t.Errorf("source = %v", hyp.Source)
	}
	if viz.HypothesisID != hyp.ID {
		t.Error("visualization should link to the user hypothesis")
	}
	// The data is roughly balanced, so the expectation should be rejected.
	if !hyp.Rejected {
		t.Errorf("expected rejection of the skewed expectation, p = %v", hyp.Test.PValue)
	}
	if _, err := s.Apply(core.TestAgainstExpectation{Visualization: 99, Expected: nil}); !errors.Is(err, core.ErrUnknownVisualization) {
		t.Error("expected unknown visualization error")
	}
}

func TestDeclareDescriptiveAndStar(t *testing.T) {
	s := newSession(t, testCensus(t))
	rich := dataset.Equals{Column: census.ColSalaryOver50K, Value: "true"}
	res := mustApply(t, s, core.AddVisualization{Target: census.ColGender, Filter: rich})
	viz, hyp := res.Visualization, res.Hypothesis
	mustApply(t, s, core.Star{Hypothesis: hyp.ID, Starred: true})
	if got := s.ImportantDiscoveries(); len(got) != 1 || got[0].ID != hyp.ID {
		t.Errorf("important discoveries = %v", got)
	}
	if s.Gauge().Starred != 1 {
		t.Error("gauge starred count")
	}
	mustApply(t, s, core.Star{Hypothesis: hyp.ID, Starred: false})
	if len(s.ImportantDiscoveries()) != 0 {
		t.Error("unstarring should remove the important discovery")
	}
	if _, err := s.Apply(core.Star{Hypothesis: 99, Starred: true}); !errors.Is(err, core.ErrUnknownHypothesis) {
		t.Error("expected unknown hypothesis error")
	}

	wealthBefore := s.Wealth()
	mustApply(t, s, core.DeclareDescriptive{Visualization: viz.ID})
	if hyp.Status != core.StatusDeleted {
		t.Error("hypothesis should be deleted")
	}
	if s.Wealth() != wealthBefore {
		t.Error("deleting must not refund wealth")
	}
	if len(s.ActiveHypotheses()) != 0 {
		t.Error("deleted hypothesis should not be active")
	}
	// Deleting a descriptive visualization is a no-op.
	vizPlain := mustApply(t, s, core.AddVisualization{Target: census.ColAge}).Visualization
	mustApply(t, s, core.DeclareDescriptive{Visualization: vizPlain.ID})
	if _, err := s.Apply(core.DeclareDescriptive{Visualization: 99}); !errors.Is(err, core.ErrUnknownVisualization) {
		t.Error("expected unknown visualization error")
	}
}

func TestAddVisualizationErrors(t *testing.T) {
	s := newSession(t, testCensus(t))
	if _, err := s.Apply(core.AddVisualization{Target: "missing"}); !errors.Is(err, dataset.ErrColumnNotFound) {
		t.Error("expected column-not-found error")
	}
	// A filter selecting nothing yields a degenerate test.
	impossible := dataset.Equals{Column: census.ColEducation, Value: "Kindergarten"}
	if _, err := s.Apply(core.AddVisualization{Target: census.ColGender, Filter: impossible}); err == nil {
		t.Error("expected error for empty sub-population")
	}
}

func TestWealthExhaustionSurfacesAsStop(t *testing.T) {
	// A gamma-fixed policy with small gamma exhausts quickly when the data is
	// random; the session must surface core.ErrWealthExhausted and the gauge must
	// say so.
	tab, err := census.Generate(census.Config{Rows: 4000, Seed: 9, SignalStrength: 0})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := investing.NewConfig(0.05)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := investing.NewFixed(3, cfg.InitialWealth())
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSession(tab, core.Options{Policy: fixed})
	if err != nil {
		t.Fatal(err)
	}
	// Each visualization filters on a distinct age range so that every test is
	// a fresh null hypothesis (the zero-signal census has no association
	// between age and any categorical attribute).
	targets := []string{census.ColGender, census.ColMaritalStatus, census.ColOccupation, census.ColEducation}
	exhausted := false
	for i := 0; i < 200 && !exhausted; i++ {
		target := targets[i%len(targets)]
		low := 18 + float64(i%55)
		filter := dataset.Range{Column: census.ColAge, Low: low, High: low + 10 + float64(i%7)}
		_, err := s.Apply(core.AddVisualization{Target: target, Filter: filter})
		if errors.Is(err, core.ErrWealthExhausted) {
			exhausted = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !exhausted {
		t.Fatal("expected the gamma-fixed(3) session on random data to exhaust its wealth")
	}
	if !s.Gauge().Exhausted {
		t.Error("gauge should report exhaustion")
	}
}

func TestCompareDistributionsKS(t *testing.T) {
	s := newSession(t, testCensus(t))
	rich := dataset.Equals{Column: census.ColSalaryOver50K, Value: "true"}
	resA := mustApply(t, s, core.AddVisualization{Target: census.ColAge, Filter: rich})
	resB := mustApply(t, s, core.AddVisualization{Target: census.ColAge, Filter: dataset.Not{Inner: rich}})
	vizA, hypA := resA.Visualization, resA.Hypothesis
	vizB, hypB := resB.Visualization, resB.Hypothesis
	hyp := mustApply(t, s, core.CompareDistributions{Attribute: census.ColAge, A: vizA.ID, B: vizB.ID}).Hypothesis
	if hyp.Test.Method != "two-sample Kolmogorov-Smirnov test" {
		t.Errorf("method = %q", hyp.Test.Method)
	}
	if hypA.Status != core.StatusSuperseded || hypB.Status != core.StatusSuperseded {
		t.Error("default hypotheses should be superseded")
	}
	// The age/salary association is planted, so the KS comparison should be a
	// discovery.
	if !hyp.Rejected {
		t.Errorf("expected discovery, p = %v alpha = %v", hyp.Test.PValue, hyp.AlphaInvested)
	}
	if _, err := s.Apply(core.CompareDistributions{Attribute: census.ColGender, A: vizA.ID, B: vizB.ID}); err == nil {
		t.Error("categorical attribute should error")
	}
	if _, err := s.Apply(core.CompareDistributions{Attribute: census.ColAge, A: 99, B: vizB.ID}); !errors.Is(err, core.ErrUnknownVisualization) {
		t.Error("expected unknown visualization error")
	}
}

func TestDataMultiplierAnnotation(t *testing.T) {
	s := newSession(t, testCensus(t))
	rich := dataset.Equals{Column: census.ColSalaryOver50K, Value: "true"}
	hyp := mustApply(t, s, core.AddVisualization{Target: census.ColGender, Filter: rich}).Hypothesis
	if math.IsNaN(hyp.DataMultiplier) || hyp.DataMultiplier <= 0 {
		t.Errorf("DataMultiplier = %v", hyp.DataMultiplier)
	}
	// A strong effect on thousands of rows needs (much) less than the current
	// amount of data, so the multiplier should be below 1.
	if hyp.DataMultiplier >= 1 {
		t.Errorf("strong effect multiplier = %v, expected < 1", hyp.DataMultiplier)
	}
	if !strings.Contains(hyp.Summary(), "p=") {
		t.Error("Summary should include the p-value")
	}
}

func TestStatusAndSourceStrings(t *testing.T) {
	if core.StatusActive.String() != "active" || core.StatusSuperseded.String() != "superseded" || core.StatusDeleted.String() != "deleted" {
		t.Error("core.HypothesisStatus.String mismatch")
	}
	if core.HypothesisStatus(9).String() == "" {
		t.Error("unknown status should format")
	}
	if core.SourceRule2.String() == "" || core.SourceRule3.String() == "" || core.SourceUser.String() == "" || core.HypothesisSource(9).String() == "" {
		t.Error("core.HypothesisSource.String mismatch")
	}
}

func TestHoldoutValidatorMatchesSection41(t *testing.T) {
	// Build a dataset with a known mean shift (the Section 4.1 example:
	// mu1 = 0, mu2 = 1, sigma = 4) and verify that confirming on a 50/50
	// hold-out split is noticeably less powerful than testing once on all
	// the data.
	const n = 500
	const reps = 40
	rng := stats.NewRNG(17)
	confirmations, fullRejections := 0, 0
	var lastTable *dataset.Table
	for r := 0; r < reps; r++ {
		// Fresh draw per replication: the confirmation rate then estimates the
		// procedure's power rather than the luck of one fixed sample.
		group := make([]string, 2*n)
		value := make([]float64, 2*n)
		for i := 0; i < n; i++ {
			group[i] = "a"
			value[i] = stats.Normal{Mu: 0, Sigma: 4}.Rand(rng)
			group[n+i] = "b"
			value[n+i] = stats.Normal{Mu: 1, Sigma: 4}.Rand(rng)
		}
		tab, err := dataset.NewTable(
			dataset.NewCategoricalColumn("group", group),
			dataset.NewFloatColumn("value", value),
		)
		if err != nil {
			t.Fatal(err)
		}
		lastTable = tab

		// Full-data reference test.
		bs, _ := tab.Filter(dataset.Equals{Column: "group", Value: "b"})
		as, _ := tab.Filter(dataset.Equals{Column: "group", Value: "a"})
		bv, _ := bs.Floats("value")
		av, _ := as.Floats("value")
		full, err := stats.WelchTTest(bv, av, stats.Greater)
		if err != nil {
			t.Fatal(err)
		}
		if full.PValue <= 0.05 {
			fullRejections++
		}

		hv, err := core.NewHoldoutValidator(tab, 0.5, 0.05, stats.NewRNG(int64(100+r)))
		if err != nil {
			t.Fatal(err)
		}
		if hv.Exploration().NumRows()+hv.Validation().NumRows() != tab.NumRows() {
			t.Fatal("split loses rows")
		}
		res, err := hv.CompareMeans("value", dataset.Equals{Column: "group", Value: "b"}, stats.Greater)
		if err != nil {
			t.Fatal(err)
		}
		if res.Confirmed {
			confirmations++
		}
		if res.Alpha != 0.05 {
			t.Errorf("alpha = %v", res.Alpha)
		}
	}
	// Section 4.1: testing on the full data has power ~0.99, the hold-out
	// confirmation procedure only ~0.76. Allow generous Monte-Carlo slack.
	fullRate := float64(fullRejections) / reps
	holdRate := float64(confirmations) / reps
	if fullRate < 0.9 {
		t.Errorf("full-data rejection rate %v, paper reports ~0.99", fullRate)
	}
	if holdRate >= fullRate {
		t.Errorf("hold-out confirmation rate %v should be below the full-data rate %v", holdRate, fullRate)
	}
	if holdRate < 0.4 || holdRate > 0.97 {
		t.Errorf("hold-out confirmation rate %v outside the plausible band around 0.76", holdRate)
	}
	if _, err := core.NewHoldoutValidator(lastTable, 0.5, 0, stats.NewRNG(1)); err == nil {
		t.Error("expected alpha validation error")
	}
	if _, err := core.NewHoldoutValidator(lastTable, 2, 0.05, stats.NewRNG(1)); err == nil {
		t.Error("expected fraction validation error")
	}
}
