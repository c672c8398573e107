package census

import (
	"math"
	"testing"

	"aware/internal/dataset"
	"aware/internal/stats"
)

// crossCounts is the contingency table of two categorical attributes over
// every row of tab.
func crossCounts(t *testing.T, tab *dataset.Table, rowAttr, colAttr string) [][]int {
	t.Helper()
	all, err := tab.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := all.CrossCounts(rowAttr, colAttr, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ct.Counts
}

// meanAge is the mean age of the rows with the given marital status.
func meanAge(t *testing.T, tab *dataset.Table, status string) float64 {
	t.Helper()
	v, err := tab.View(dataset.Equals{Column: ColMaritalStatus, Value: status})
	if err != nil {
		t.Fatal(err)
	}
	m, err := v.Moments(ColAge, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m.Mean
}

// smallCensus caches a modest table so the test suite stays fast.
func smallCensus(t *testing.T) *dataset.Table {
	t.Helper()
	tab, err := Generate(Config{Rows: 6000, Seed: 11, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestGenerateSchemaAndSize(t *testing.T) {
	tab := smallCensus(t)
	if tab.NumRows() != 6000 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	for _, col := range []string{ColGender, ColAge, ColEducation, ColMaritalStatus, ColOccupation, ColHoursPerWeek, ColSalaryOver50K} {
		if !tab.HasColumn(col) {
			t.Errorf("missing column %q", col)
		}
	}
	cats, err := tab.Categories(ColEducation)
	if err != nil || len(cats) != 4 {
		t.Errorf("education categories %v, %v", cats, err)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Rows: 0, Seed: 1, SignalStrength: 1}); err == nil {
		t.Error("expected error for zero rows")
	}
	if _, err := Generate(Config{Rows: 10, Seed: 1, SignalStrength: -1}); err == nil {
		t.Error("expected error for negative signal")
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	a, err := Generate(Config{Rows: 500, Seed: 42, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Rows: 500, Seed: 42, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	ga, _ := a.Strings(ColGender)
	gb, _ := b.Strings(ColGender)
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatal("same seed must generate identical data")
		}
	}
	c, err := Generate(Config{Rows: 500, Seed: 43, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	gc, _ := c.Strings(ColGender)
	same := true
	for i := range ga {
		if ga[i] != gc[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should generate different data")
	}
}

func TestPlantedCorrelations(t *testing.T) {
	tab := smallCensus(t)

	// Education -> salary: PhDs should have a much higher share of >50k than
	// HS graduates (the paper's motivating insight).
	share := func(edu string) float64 {
		sub, err := tab.Filter(dataset.Equals{Column: ColEducation, Value: edu})
		if err != nil {
			t.Fatal(err)
		}
		counts, err := sub.ValueCounts(ColSalaryOver50K)
		if err != nil {
			t.Fatal(err)
		}
		total := counts["true"] + counts["false"]
		if total == 0 {
			return 0
		}
		return float64(counts["true"]) / float64(total)
	}
	if share("PhD") <= share("HS")+0.2 {
		t.Errorf("PhD>50k share %v should clearly exceed HS share %v", share("PhD"), share("HS"))
	}

	// Gender -> salary gap among the high earners (Figure 1 B).
	rich, err := tab.Filter(dataset.Equals{Column: ColSalaryOver50K, Value: "true"})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := rich.ValueCounts(ColGender)
	if err != nil {
		t.Fatal(err)
	}
	if counts["Male"] <= counts["Female"] {
		t.Errorf("high earners should skew male: %v", counts)
	}

	// The association must be statistically detectable with the chi-squared
	// independence test used by AWARE.
	res, err := stats.ChiSquaredIndependence(crossCounts(t, tab, ColGender, ColSalaryOver50K))
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 1e-6 {
		t.Errorf("gender-salary association should be strongly significant, p = %v", res.PValue)
	}

	// Marital status depends on age: never-married people are younger.
	single, married := meanAge(t, tab, "Never-Married"), meanAge(t, tab, "Married")
	if single >= married {
		t.Errorf("never-married mean age %v should be below married %v", single, married)
	}
}

func TestZeroSignalRemovesCorrelations(t *testing.T) {
	tab, err := Generate(Config{Rows: 8000, Seed: 5, SignalStrength: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := stats.ChiSquaredIndependence(crossCounts(t, tab, ColGender, ColSalaryOver50K))
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 0.001 {
		t.Errorf("zero-signal census should not show a strong gender-salary association, p = %v", res.PValue)
	}
}

func TestRandomizeDestroysAssociations(t *testing.T) {
	tab := smallCensus(t)
	randomized, err := Randomize(tab, 99)
	if err != nil {
		t.Fatal(err)
	}
	if randomized.NumRows() != tab.NumRows() {
		t.Fatal("randomize changed the row count")
	}
	// Marginals preserved.
	orig, _ := tab.ValueCounts(ColEducation)
	rand, _ := randomized.ValueCounts(ColEducation)
	for k, v := range orig {
		if rand[k] != v {
			t.Errorf("education marginal changed for %q: %d -> %d", k, v, rand[k])
		}
	}
	// Association destroyed: education vs salary becomes non-significant at a
	// strict threshold.
	res, err := stats.ChiSquaredIndependence(crossCounts(t, randomized, ColEducation, ColSalaryOver50K))
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 1e-4 {
		t.Errorf("randomized census still shows education-salary association, p = %v", res.PValue)
	}
}

func TestGenerateWorkflowShape(t *testing.T) {
	tab := smallCensus(t)
	// The paper's Exp. 2: 115 hypotheses, chains up to depth 3.
	w, err := GenerateWorkflow(tab, WorkflowConfig{Hypotheses: 115, Seed: 7, MaxChainDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Steps) != 115 {
		t.Fatalf("workflow length = %d, want 115", len(w.Steps))
	}
	kinds := map[HypothesisKind]int{}
	for i, step := range w.Steps {
		if step.ID != i+1 {
			t.Errorf("step %d has ID %d", i, step.ID)
		}
		if step.Filter == nil {
			t.Errorf("step %d has nil filter", step.ID)
		}
		if step.Target == "" || step.Description == "" {
			t.Errorf("step %d missing target or description", step.ID)
		}
		kinds[step.Kind]++
		// The target must not also be a filter attribute of the step.
		if and, ok := step.Filter.(dataset.And); ok {
			for _, term := range and.Terms {
				if eq, ok := term.(dataset.Equals); ok && eq.Column == step.Target {
					t.Errorf("step %d filters and targets the same attribute %q", step.ID, step.Target)
				}
			}
		}
	}
	if kinds[FilterVsPopulation] == 0 || kinds[FilterVsComplement] == 0 {
		t.Errorf("workflow should mix both hypothesis kinds: %v", kinds)
	}
	if FilterVsPopulation.String() != "filter-vs-population" || FilterVsComplement.String() != "filter-vs-complement" {
		t.Error("HypothesisKind.String mismatch")
	}
	if HypothesisKind(9).String() == "" {
		t.Error("unknown kind should still format")
	}
}

func TestGenerateWorkflowDeterministicAndValidated(t *testing.T) {
	tab := smallCensus(t)
	cfg := WorkflowConfig{Hypotheses: 30, Seed: 3, MaxChainDepth: 2}
	w1, err := GenerateWorkflow(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := GenerateWorkflow(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w1.Steps {
		if w1.Steps[i].Description != w2.Steps[i].Description {
			t.Fatal("workflow generation must be deterministic")
		}
	}
	if _, err := GenerateWorkflow(tab, WorkflowConfig{Hypotheses: 0}); err == nil {
		t.Error("expected error for zero hypotheses")
	}
}

func TestEvaluateStepBothKinds(t *testing.T) {
	tab := smallCensus(t)
	cache := dataset.NewSelectionCache(tab)
	popStep := WorkflowStep{
		ID:     1,
		Kind:   FilterVsPopulation,
		Target: ColGender,
		Filter: dataset.Equals{Column: ColSalaryOver50K, Value: "true"},
	}
	res, err := EvaluateStep(cache, popStep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Test.PValue > 0.01 {
		t.Errorf("gender|salary>50k vs population should be significant, p = %v", res.Test.PValue)
	}
	if res.SupportSize <= 0 || res.SupportSize >= res.PopulationSize {
		t.Errorf("support %d population %d", res.SupportSize, res.PopulationSize)
	}

	compStep := WorkflowStep{
		ID:     2,
		Kind:   FilterVsComplement,
		Target: ColGender,
		Filter: dataset.Equals{Column: ColSalaryOver50K, Value: "true"},
	}
	res2, err := EvaluateStep(cache, compStep)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Test.PValue > 0.01 {
		t.Errorf("gender by salary class comparison should be significant, p = %v", res2.Test.PValue)
	}

	// Errors: missing filter, unknown kind, bad target.
	if _, err := EvaluateStep(cache, WorkflowStep{ID: 3, Target: ColGender}); err == nil {
		t.Error("expected error for nil filter")
	}
	if _, err := EvaluateStep(cache, WorkflowStep{ID: 4, Kind: HypothesisKind(9), Target: ColGender, Filter: popStep.Filter}); err == nil {
		t.Error("expected error for unknown kind")
	}
	if _, err := EvaluateStep(cache, WorkflowStep{ID: 5, Kind: FilterVsPopulation, Target: "missing", Filter: popStep.Filter}); err == nil {
		t.Error("expected error for missing target")
	}
}

func TestEvaluateWorkflowAndGroundTruth(t *testing.T) {
	tab := smallCensus(t)
	w, err := GenerateWorkflow(tab, WorkflowConfig{Hypotheses: 40, Seed: 13, MaxChainDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	results, err := EvaluateWorkflow(tab, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(w.Steps) {
		t.Fatalf("results length %d", len(results))
	}
	pvals := PValues(results)
	for i, p := range pvals {
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Errorf("p-value %d out of range: %v", i, p)
		}
	}
	trueNull, err := GroundTruth(tab, w, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(trueNull) != len(w.Steps) {
		t.Fatalf("ground truth length %d", len(trueNull))
	}
	// On the real census with planted correlations, at least some hypotheses
	// should be labelled truly significant, and not all of them.
	sig := 0
	for _, tn := range trueNull {
		if !tn {
			sig++
		}
	}
	if sig == 0 {
		t.Error("expected at least one truly significant hypothesis on the census")
	}
	if sig == len(trueNull) {
		t.Error("expected at least one true null hypothesis on the census")
	}
}

func TestEvaluateWorkflowOnTinySampleKeepsLength(t *testing.T) {
	tab := smallCensus(t)
	w, err := GenerateWorkflow(tab, WorkflowConfig{Hypotheses: 25, Seed: 17, MaxChainDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := tab.Sample(stats.NewRNG(1), 0.01) // 60 rows: many chains will be empty
	if err != nil {
		t.Fatal(err)
	}
	results, err := EvaluateWorkflow(tiny, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(w.Steps) {
		t.Fatalf("tiny-sample evaluation dropped steps: %d", len(results))
	}
	for _, r := range results {
		if r.Test.PValue < 0 || r.Test.PValue > 1 {
			t.Errorf("invalid p-value %v", r.Test.PValue)
		}
	}
}

func TestGroundTruthOnRandomizedCensusIsAllNull(t *testing.T) {
	tab := smallCensus(t)
	randomized, err := Randomize(tab, 7)
	if err != nil {
		t.Fatal(err)
	}
	w, err := GenerateWorkflow(randomized, WorkflowConfig{Hypotheses: 30, Seed: 19, MaxChainDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	trueNull, err := GroundTruth(randomized, w, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	nulls := 0
	for _, tn := range trueNull {
		if tn {
			nulls++
		}
	}
	// With all associations destroyed and a Bonferroni threshold, almost every
	// hypothesis should be labelled null (allow a single unlucky one).
	if nulls < len(trueNull)-1 {
		t.Errorf("randomized census labelled %d/%d nulls", nulls, len(trueNull))
	}
}
