package stats

import (
	"errors"
	"fmt"
	"math"
)

// ChiSquaredGoodnessOfFit tests whether the observed counts follow the
// distribution given by expected proportions (which are normalized to sum to
// one). It is the test used by AWARE's heuristic rule 2: "the filtered
// distribution does not differ from the whole-dataset distribution".
func ChiSquaredGoodnessOfFit(observed []int, expectedProportions []float64) (TestResult, error) {
	const method = "chi-squared goodness-of-fit test"
	if len(observed) != len(expectedProportions) {
		return TestResult{}, errors.New("stats: observed and expected must have equal length")
	}
	if len(observed) < 2 {
		return TestResult{}, fmt.Errorf("stats: %s requires at least 2 categories: %w", method, ErrDomain)
	}
	total := 0
	for _, o := range observed {
		if o < 0 {
			return TestResult{}, fmt.Errorf("stats: negative observed count: %w", ErrDomain)
		}
		total += o
	}
	if total == 0 {
		return TestResult{}, fmt.Errorf("stats: %s requires a non-empty sample: %w", method, ErrEmptySample)
	}
	propTotal := 0.0
	for _, p := range expectedProportions {
		if p < 0 || math.IsNaN(p) {
			return TestResult{}, fmt.Errorf("stats: negative expected proportion: %w", ErrDomain)
		}
		propTotal += p
	}
	if propTotal <= 0 {
		return TestResult{}, fmt.Errorf("stats: expected proportions sum to zero: %w", ErrDomain)
	}
	statistic := 0.0
	categories := 0
	for i, o := range observed {
		expected := float64(total) * expectedProportions[i] / propTotal
		if expected == 0 {
			// A category the reference distribution says is impossible: skip it
			// unless it was observed, in which case the statistic is infinite.
			if o > 0 {
				statistic = math.Inf(1)
			}
			continue
		}
		d := float64(o) - expected
		statistic += d * d / expected
		categories++
	}
	if categories < 2 {
		return TestResult{}, fmt.Errorf("stats: %s requires at least 2 categories with positive expectation: %w", method, ErrDomain)
	}
	df := float64(categories - 1)
	p := ChiSquared{DF: df}.Survival(statistic)
	// Effect size: Cramér's V for a one-dimensional table reduces to
	// sqrt(chi2 / (n * df)).
	v := math.Sqrt(statistic / (float64(total) * df))
	return TestResult{Statistic: statistic, PValue: p, DF: df, EffectSize: v, N: total, Method: method}, nil
}

// ChiSquaredIndependence tests independence of the two categorical variables
// whose cross-tabulation is given by table (rows x columns of counts). It is
// the test used by AWARE's heuristic rule 3: "two filtered sub-populations
// have the same distribution".
func ChiSquaredIndependence(table [][]int) (TestResult, error) {
	const method = "chi-squared test of independence"
	rows := len(table)
	if rows < 2 {
		return TestResult{}, fmt.Errorf("stats: %s requires at least a 2x2 table: %w", method, ErrDomain)
	}
	cols := len(table[0])
	if cols < 2 {
		return TestResult{}, fmt.Errorf("stats: %s requires at least a 2x2 table: %w", method, ErrDomain)
	}
	rowTotals := make([]float64, rows)
	colTotals := make([]float64, cols)
	grand := 0.0
	for i, row := range table {
		if len(row) != cols {
			return TestResult{}, errors.New("stats: ragged contingency table")
		}
		for j, c := range row {
			if c < 0 {
				return TestResult{}, fmt.Errorf("stats: negative cell count: %w", ErrDomain)
			}
			rowTotals[i] += float64(c)
			colTotals[j] += float64(c)
			grand += float64(c)
		}
	}
	if grand == 0 {
		return TestResult{}, fmt.Errorf("stats: %s requires a non-empty table: %w", method, ErrEmptySample)
	}
	// Drop all-zero rows/columns: they contribute no information and would
	// otherwise produce 0/0 expectations.
	effRows, effCols := 0, 0
	for _, rt := range rowTotals {
		if rt > 0 {
			effRows++
		}
	}
	for _, ct := range colTotals {
		if ct > 0 {
			effCols++
		}
	}
	if effRows < 2 || effCols < 2 {
		return TestResult{}, fmt.Errorf("stats: contingency table collapses to fewer than 2x2 informative cells: %w", ErrDomain)
	}
	statistic := 0.0
	for i, row := range table {
		for j, c := range row {
			if rowTotals[i] == 0 || colTotals[j] == 0 {
				continue
			}
			expected := rowTotals[i] * colTotals[j] / grand
			d := float64(c) - expected
			statistic += d * d / expected
		}
	}
	df := float64((effRows - 1) * (effCols - 1))
	p := ChiSquared{DF: df}.Survival(statistic)
	minDim := float64(minInt(effRows, effCols) - 1)
	v := 0.0
	if minDim > 0 {
		v = math.Sqrt(statistic / (grand * minDim))
	}
	return TestResult{Statistic: statistic, PValue: p, DF: df, EffectSize: v, N: int(grand), Method: method}, nil
}
