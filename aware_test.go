package aware_test

import (
	"strings"
	"testing"

	"aware"
)

// TestFacadeQuickstart exercises the public API end to end: generate data,
// open a session, derive default hypotheses, read the gauge.
func TestFacadeQuickstart(t *testing.T) {
	table, err := aware.GenerateCensus(aware.CensusConfig{Rows: 5000, Seed: 1, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	session, err := aware.NewSession(table, aware.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Unfiltered chart: descriptive.
	res, err := session.Apply(aware.AddVisualization{Target: "gender"})
	if err != nil || res.Hypothesis != nil {
		t.Fatalf("descriptive chart: %v, %v", res.Hypothesis, err)
	}
	// Filtered chart: rule-2 hypothesis on a strongly planted correlation.
	res, err = session.Apply(aware.AddVisualization{Target: "gender", Filter: aware.Equals{Column: "salary_over_50k", Value: "true"}})
	if err != nil {
		t.Fatal(err)
	}
	if hyp := res.Hypothesis; hyp == nil || !hyp.Rejected {
		t.Fatalf("expected a discovery, got %+v", hyp)
	}
	gauge := session.Gauge()
	if gauge.Tests != 1 || gauge.Discoveries != 1 {
		t.Errorf("gauge %+v", gauge)
	}
	if !strings.Contains(gauge.Render(), "discoveries 1") {
		t.Error("gauge rendering missing discovery count")
	}
}

// TestFacadeInvestorPipeline uses the investing API directly, the way an
// automated screening pipeline would.
func TestFacadeInvestorPipeline(t *testing.T) {
	cfg := aware.DefaultInvestingConfig()
	policy, err := aware.NewHybrid(0.5, 10, 10, cfg.Alpha, cfg.InitialWealth(), 0)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := aware.NewInvestor(cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	pvalues := []float64{0.0001, 0.7, 0.003, 0.4, 0.2, 0.0005}
	rejections, err := inv.Run(pvalues, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rejections[0] || rejections[1] {
		t.Errorf("unexpected decisions %v", rejections)
	}
	if inv.Rejections() == 0 {
		t.Error("expected at least one discovery")
	}
}

// TestFacadeBatchProcedures checks the re-exported batch procedures.
func TestFacadeBatchProcedures(t *testing.T) {
	p := []float64{0.001, 0.2, 0.03, 0.6}
	rej, err := aware.BenjaminiHochberg.Apply(p, aware.DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if !rej[0] {
		t.Error("BH should reject the smallest p-value")
	}
	outcome, err := aware.EvaluateOutcome(rej, []bool{false, true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Discoveries == 0 {
		t.Error("expected discoveries")
	}
}

// TestFacadeStats checks the statistical re-exports.
func TestFacadeStats(t *testing.T) {
	res, err := aware.WelchTTest([]float64{1, 2, 3, 4}, []float64{5, 6, 7, 8}, aware.TwoSided)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 0.05 {
		t.Errorf("p = %v", res.PValue)
	}
	tab, err := aware.NewTable(
		aware.NewCategoricalColumn("k", []string{"a", "b", "a", "b"}),
		aware.NewFloatColumn("v", []float64{1, 2, 3, 4}),
	)
	if err != nil || tab.NumRows() != 4 {
		t.Fatalf("table: %v", err)
	}
}
