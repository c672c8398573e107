package stats

import (
	"fmt"
	"math"
)

// TwoSampleTTestPower returns the power of a two-sample t-test with n
// observations per group, standardized effect size d (difference in means
// divided by the common standard deviation), and significance level alpha.
// The computation uses the normal approximation to the non-central t
// distribution, which is accurate to a couple of decimal places for n >= 20
// and matches the worked example of Section 4.1 of the paper (d = 0.25,
// n = 500 -> power 0.99; n = 250 -> power about 0.87).
func TwoSampleTTestPower(n int, d, alpha float64, alt Alternative) (float64, error) {
	if n < 2 {
		return math.NaN(), ErrEmptySample
	}
	if alpha <= 0 || alpha >= 1 {
		return math.NaN(), fmt.Errorf("stats: power requires alpha in (0,1): %w", ErrDomain)
	}
	ncp := math.Abs(d) * math.Sqrt(float64(n)/2)
	std := StandardNormal()
	switch alt {
	case TwoSided:
		zCrit, err := std.Quantile(1 - alpha/2)
		if err != nil {
			return math.NaN(), err
		}
		return std.Survival(zCrit-ncp) + std.CDF(-zCrit-ncp), nil
	default: // one-sided in the direction of the effect
		zCrit, err := std.Quantile(1 - alpha)
		if err != nil {
			return math.NaN(), err
		}
		return std.Survival(zCrit - ncp), nil
	}
}

// TwoSampleTTestSampleSize returns the per-group sample size needed for a
// two-sample t-test to reach the requested power at effect size d and level
// alpha.
func TwoSampleTTestSampleSize(d, alpha, power float64, alt Alternative) (int, error) {
	if d == 0 {
		return 0, fmt.Errorf("stats: cannot size a study for a zero effect: %w", ErrDomain)
	}
	if alpha <= 0 || alpha >= 1 || power <= 0 || power >= 1 {
		return 0, fmt.Errorf("stats: sample size requires alpha and power in (0,1): %w", ErrDomain)
	}
	std := StandardNormal()
	var zAlpha float64
	var err error
	if alt == TwoSided {
		zAlpha, err = std.Quantile(1 - alpha/2)
	} else {
		zAlpha, err = std.Quantile(1 - alpha)
	}
	if err != nil {
		return 0, err
	}
	zBeta, err := std.Quantile(power)
	if err != nil {
		return 0, err
	}
	n := 2 * math.Pow((zAlpha+zBeta)/math.Abs(d), 2)
	return int(math.Ceil(n)), nil
}

// RequiredMultiplier returns the multiple of the current sample size (under
// the assumption that additional data follows the currently observed effect
// size d) that a two-sample t-test would need to reach significance at level
// alpha with the requested power. This is the n_H1 annotation AWARE shows
// next to each hypothesis (Figure 2 (B)/(C)): "you need k times more data to
// flip this decision".
//
// It returns +Inf when the observed effect is exactly zero (no amount of data
// following the current distribution would reject the null).
func RequiredMultiplier(currentN int, d, alpha, power float64, alt Alternative) (float64, error) {
	if currentN <= 0 {
		return math.NaN(), ErrEmptySample
	}
	if d == 0 {
		return math.Inf(1), nil
	}
	need, err := TwoSampleTTestSampleSize(d, alpha, power, alt)
	if err != nil {
		return math.NaN(), err
	}
	return float64(need) / float64(currentN), nil
}
