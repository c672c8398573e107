package stats

import (
	"errors"
	"fmt"
	"math"
)

// Alternative selects the tail(s) of a hypothesis test.
type Alternative int

const (
	// TwoSided tests H1: parameter != null value.
	TwoSided Alternative = iota
	// Greater tests H1: parameter > null value.
	Greater
	// Less tests H1: parameter < null value.
	Less
)

// String implements fmt.Stringer.
func (a Alternative) String() string {
	switch a {
	case TwoSided:
		return "two-sided"
	case Greater:
		return "greater"
	case Less:
		return "less"
	default:
		return fmt.Sprintf("Alternative(%d)", int(a))
	}
}

// TestResult is the outcome of a single statistical hypothesis test.
type TestResult struct {
	// Statistic is the value of the test statistic (t, chi-squared, U, D, or
	// Fisher's top-left cell).
	Statistic float64
	// PValue is the probability of observing a statistic at least as extreme
	// under the null hypothesis.
	PValue float64
	// DF is the degrees of freedom of the reference distribution (0 for the
	// Mann–Whitney, Kolmogorov–Smirnov and Fisher exact tests).
	DF float64
	// EffectSize is the standardized effect size associated with the test
	// (Cohen's d for t-tests, Cramér's V for chi-squared tests).
	EffectSize float64
	// N is the total number of observations used by the test.
	N int
	// Method names the test, e.g. "Welch two-sample t-test".
	Method string
}

// errSampleTooSmall builds a descriptive error for undersized test inputs.
func errSampleTooSmall(method string, n int) error {
	return fmt.Errorf("stats: %s requires at least 2 observations per sample, got %d: %w", method, n, ErrEmptySample)
}

// TwoSampleTTest tests whether the means of xs and ys differ, assuming equal
// variances (Student's pooled t-test).
func TwoSampleTTest(xs, ys []float64, alt Alternative) (TestResult, error) {
	const method = "Student two-sample t-test"
	if len(xs) < 2 || len(ys) < 2 {
		return TestResult{}, errSampleTooSmall(method, minInt(len(xs), len(ys)))
	}
	mx, vx, err := MeanVariance(xs)
	if err != nil {
		return TestResult{}, err
	}
	my, vy, err := MeanVariance(ys)
	if err != nil {
		return TestResult{}, err
	}
	nx, ny := float64(len(xs)), float64(len(ys))
	df := nx + ny - 2
	pooled := ((nx-1)*vx + (ny-1)*vy) / df
	se := math.Sqrt(pooled * (1/nx + 1/ny))
	if se == 0 {
		return TestResult{}, errors.New("stats: two-sample t-test undefined for zero pooled variance")
	}
	t := (mx - my) / se
	p := tTestPValue(t, df, alt)
	d := cohensDFromStats(mx, my, vx, vy, nx, ny)
	return TestResult{Statistic: t, PValue: p, DF: df, EffectSize: d, N: len(xs) + len(ys), Method: method}, nil
}

// WelchTTest tests whether the means of xs and ys differ without assuming
// equal variances (Welch's t-test with Satterthwaite degrees of freedom).
func WelchTTest(xs, ys []float64, alt Alternative) (TestResult, error) {
	return WelchFromMoments(MomentsOf(xs), MomentsOf(ys), alt)
}

// WelchFromMoments is WelchTTest on two samples already reduced to their
// moments — the one implementation of the test. The reduction is the
// caller's: MomentsOf for a slice, MomentsFromCounts for a value histogram.
func WelchFromMoments(x, y Moments, alt Alternative) (TestResult, error) {
	const method = "Welch two-sample t-test"
	if x.N < 2 || y.N < 2 {
		return TestResult{}, errSampleTooSmall(method, minInt(x.N, y.N))
	}
	mx, vx, my, vy := x.Mean, x.Variance(), y.Mean, y.Variance()
	nx, ny := float64(x.N), float64(y.N)
	sx2, sy2 := vx/nx, vy/ny
	se := math.Sqrt(sx2 + sy2)
	if se == 0 {
		return TestResult{}, errors.New("stats: Welch t-test undefined for zero-variance samples")
	}
	t := (mx - my) / se
	df := (sx2 + sy2) * (sx2 + sy2) / (sx2*sx2/(nx-1) + sy2*sy2/(ny-1))
	p := tTestPValue(t, df, alt)
	d := cohensDFromStats(mx, my, vx, vy, nx, ny)
	return TestResult{Statistic: t, PValue: p, DF: df, EffectSize: d, N: x.N + y.N, Method: method}, nil
}

// tTestPValue converts a t statistic with df degrees of freedom to a p-value
// for the requested alternative.
func tTestPValue(t, df float64, alt Alternative) float64 {
	dist := StudentT{DF: df}
	switch alt {
	case Greater:
		return dist.Survival(t)
	case Less:
		return dist.CDF(t)
	default:
		return 2 * dist.Survival(math.Abs(t))
	}
}

// cohensDFromStats computes Cohen's d from summary statistics using the pooled
// standard deviation.
func cohensDFromStats(mx, my, vx, vy, nx, ny float64) float64 {
	pooled := ((nx-1)*vx + (ny-1)*vy) / (nx + ny - 2)
	if pooled <= 0 {
		return 0
	}
	return (mx - my) / math.Sqrt(pooled)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
