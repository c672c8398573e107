package stats

import (
	"errors"
	"testing"
)

func TestTwoSampleTTestAgainstReference(t *testing.T) {
	// Reference values computed with the textbook pooled-t formula.
	xs := []float64{20.4, 24.1, 22.7, 21.6, 23.2, 22.9, 24.5, 21.8}
	ys := []float64{19.9, 21.3, 20.6, 22.1, 20.8, 19.5, 21.0, 20.2}
	res, err := TwoSampleTTest(xs, ys, TwoSided)
	if err != nil {
		t.Fatal(err)
	}
	if res.DF != 14 {
		t.Errorf("DF = %v, want 14", res.DF)
	}
	if res.Statistic < 3 || res.Statistic > 5 {
		t.Errorf("statistic = %v, expected in (3,5)", res.Statistic)
	}
	if res.PValue > 0.01 {
		t.Errorf("p-value = %v, expected < 0.01", res.PValue)
	}
	if res.EffectSize <= 0 {
		t.Errorf("effect size = %v, expected positive", res.EffectSize)
	}
	if res.N != 16 {
		t.Errorf("N = %d", res.N)
	}
}

func TestWelchTTestUnequalVariances(t *testing.T) {
	rng := NewRNG(7)
	xs := make([]float64, 50)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = Normal{Mu: 0, Sigma: 1}.Rand(rng)
	}
	for i := range ys {
		ys[i] = Normal{Mu: 0, Sigma: 5}.Rand(rng)
	}
	res, err := WelchTTest(xs, ys, TwoSided)
	if err != nil {
		t.Fatal(err)
	}
	// Welch df must lie strictly between min(n)-1 and n1+n2-2.
	if res.DF < 49 || res.DF > 248 {
		t.Errorf("Welch DF = %v outside plausible range", res.DF)
	}
	// Same mean: p-value should usually be non-significant.
	if res.PValue < 0.001 {
		t.Errorf("unexpectedly small p-value %v for equal means", res.PValue)
	}
}

func TestWelchDetectsTrueDifference(t *testing.T) {
	// The Section 4.1 setting has power 0.99, so a single unlucky draw can
	// still miss; average over a handful of replications instead of relying
	// on one seed.
	detected := 0
	for seed := int64(0); seed < 5; seed++ {
		rng := NewRNG(100 + seed)
		xs := make([]float64, 500)
		ys := make([]float64, 500)
		for i := range xs {
			xs[i] = Normal{Mu: 0, Sigma: 4}.Rand(rng)
			ys[i] = Normal{Mu: 1, Sigma: 4}.Rand(rng)
		}
		res, err := WelchTTest(ys, xs, Greater)
		if err != nil {
			t.Fatal(err)
		}
		if res.PValue <= 0.05 {
			detected++
		}
	}
	if detected < 4 {
		t.Errorf("detected the Section 4.1 effect in only %d/5 replications", detected)
	}
}

func TestWelchDetectsLargeDifference(t *testing.T) {
	rng := NewRNG(99)
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = Normal{Mu: 0, Sigma: 1}.Rand(rng)
		ys[i] = Normal{Mu: 1, Sigma: 1}.Rand(rng)
	}
	res, err := WelchTTest(ys, xs, Greater)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 1e-6 {
		t.Errorf("expected detection of a 1-sigma mean shift, p = %v", res.PValue)
	}
}

func TestAlternativeTails(t *testing.T) {
	xs := []float64{1.2, 1.5, 1.1, 1.4, 1.3, 1.6, 1.2, 1.5}
	ys := []float64{1.0, 0.9, 1.1, 1.0, 0.8, 1.0, 0.9, 1.1}
	greater, _ := TwoSampleTTest(xs, ys, Greater)
	less, _ := TwoSampleTTest(xs, ys, Less)
	two, _ := TwoSampleTTest(xs, ys, TwoSided)
	if !approxEqual(greater.PValue+less.PValue, 1, 1e-9) {
		t.Errorf("one-sided p-values must sum to 1: %v + %v", greater.PValue, less.PValue)
	}
	if !approxEqual(two.PValue, 2*greater.PValue, 1e-9) {
		t.Errorf("two-sided should be twice the smaller tail: %v vs %v", two.PValue, 2*greater.PValue)
	}
}

func TestTTestErrors(t *testing.T) {
	if _, err := TwoSampleTTest([]float64{1, 2}, []float64{3}, TwoSided); !errors.Is(err, ErrEmptySample) {
		t.Error("expected empty-sample error")
	}
	if _, err := WelchTTest([]float64{1}, []float64{3, 4}, TwoSided); !errors.Is(err, ErrEmptySample) {
		t.Error("expected empty-sample error")
	}
	if _, err := TwoSampleTTest([]float64{2, 2, 2}, []float64{2, 2}, TwoSided); err == nil {
		t.Error("expected zero-variance error")
	}
}

func TestChiSquaredGoodnessOfFitUniform(t *testing.T) {
	// Perfectly uniform observed counts: statistic 0, p-value 1.
	res, err := ChiSquaredGoodnessOfFit([]int{25, 25, 25, 25}, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Statistic != 0 || !approxEqual(res.PValue, 1, 1e-12) {
		t.Errorf("stat=%v p=%v", res.Statistic, res.PValue)
	}
	// A strong departure should reject.
	res, err = ChiSquaredGoodnessOfFit([]int{80, 10, 5, 5}, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 1e-6 {
		t.Errorf("expected strong rejection, p = %v", res.PValue)
	}
	if res.DF != 3 {
		t.Errorf("DF = %v", res.DF)
	}
}

func TestChiSquaredGoodnessOfFitErrors(t *testing.T) {
	if _, err := ChiSquaredGoodnessOfFit([]int{1, 2}, []float64{1}); err == nil {
		t.Error("expected length mismatch error")
	}
	if _, err := ChiSquaredGoodnessOfFit([]int{0, 0}, []float64{1, 1}); !errors.Is(err, ErrEmptySample) {
		t.Error("expected empty sample error")
	}
	if _, err := ChiSquaredGoodnessOfFit([]int{-1, 2}, []float64{1, 1}); !errors.Is(err, ErrDomain) {
		t.Error("expected domain error for negative count")
	}
	if _, err := ChiSquaredGoodnessOfFit([]int{5, 5}, []float64{0, 0}); !errors.Is(err, ErrDomain) {
		t.Error("expected domain error for zero expected proportions")
	}
}

func TestChiSquaredIndependence(t *testing.T) {
	// Independent table: p-value near 1.
	indep := [][]int{{50, 50}, {50, 50}}
	res, err := ChiSquaredIndependence(indep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Statistic != 0 {
		t.Errorf("independent table statistic = %v", res.Statistic)
	}
	// Strongly dependent table.
	dep := [][]int{{90, 10}, {10, 90}}
	res, err = ChiSquaredIndependence(dep)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 1e-10 {
		t.Errorf("dependent table p-value = %v", res.PValue)
	}
	if res.DF != 1 {
		t.Errorf("DF = %v, want 1", res.DF)
	}
	if res.EffectSize < 0.5 {
		t.Errorf("Cramér's V = %v, expected large", res.EffectSize)
	}
}

func TestChiSquaredIndependenceErrors(t *testing.T) {
	if _, err := ChiSquaredIndependence([][]int{{1, 2}}); err == nil {
		t.Error("expected error for single-row table")
	}
	if _, err := ChiSquaredIndependence([][]int{{1, 2}, {3}}); err == nil {
		t.Error("expected error for ragged table")
	}
	if _, err := ChiSquaredIndependence([][]int{{0, 0}, {0, 0}}); err == nil {
		t.Error("expected error for empty table")
	}
	if _, err := ChiSquaredIndependence([][]int{{1, -2}, {3, 4}}); err == nil {
		t.Error("expected error for negative cell")
	}
	// A table with an all-zero column collapses below 2x2.
	if _, err := ChiSquaredIndependence([][]int{{1, 0}, {3, 0}}); err == nil {
		t.Error("expected error for collapsed table")
	}
}

func TestAlternativeString(t *testing.T) {
	if TwoSided.String() != "two-sided" || Greater.String() != "greater" || Less.String() != "less" {
		t.Error("Alternative.String mismatch")
	}
	if Alternative(9).String() == "" {
		t.Error("unknown alternative should still format")
	}
}
