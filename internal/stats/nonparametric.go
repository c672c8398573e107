package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// MannWhitneyU performs the Mann–Whitney U (Wilcoxon rank-sum) test for a
// difference in location between xs and ys, using the normal approximation
// with tie correction and continuity correction. It is offered as an
// alternative default test for numeric visualization targets whose
// distributions are far from normal (heavy-tailed incomes, for example).
func MannWhitneyU(xs, ys []float64, alt Alternative) (TestResult, error) {
	const method = "Mann-Whitney U test"
	if len(xs) == 0 || len(ys) == 0 {
		return TestResult{}, errSampleTooSmall(method, minInt(len(xs), len(ys)))
	}
	nx, ny := float64(len(xs)), float64(len(ys))
	pooled := make([]float64, 0, len(xs)+len(ys))
	pooled = append(pooled, xs...)
	pooled = append(pooled, ys...)
	ranks, tieCorrection := rankWithTies(pooled)

	// Rank sum of the first sample.
	var rx float64
	for i := range xs {
		rx += ranks[i]
	}
	u := rx - nx*(nx+1)/2 // U statistic for xs

	mean := nx * ny / 2
	n := nx + ny
	variance := nx * ny / 12 * ((n + 1) - tieCorrection/(n*(n-1)))
	if variance <= 0 {
		return TestResult{}, errors.New("stats: Mann-Whitney U undefined when all values are tied")
	}
	sd := math.Sqrt(variance)

	// Continuity-corrected z statistic.
	var z float64
	switch alt {
	case Greater:
		z = (u - mean - 0.5) / sd
	case Less:
		z = (u - mean + 0.5) / sd
	default:
		z = (u - mean - math.Copysign(0.5, u-mean)) / sd
		if u == mean {
			z = 0
		}
	}
	p := zTestPValue(z, alt)

	// Effect size: rank-biserial correlation r = 2U/(nx*ny) - 1.
	effect := 2*u/(nx*ny) - 1
	return TestResult{Statistic: u, PValue: p, DF: 0, EffectSize: effect, N: len(xs) + len(ys), Method: method}, nil
}

// rankWithTies returns midranks of xs and the tie-correction term
// sum(t^3 - t) over tie groups.
func rankWithTies(xs []float64) (ranks []float64, tieCorrection float64) {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return xs[idx[i]] < xs[idx[j]] })
	ranks = make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Midrank for the tie group [i, j].
		mid := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = mid
		}
		t := float64(j - i + 1)
		if t > 1 {
			tieCorrection += t*t*t - t
		}
		i = j + 1
	}
	return ranks, tieCorrection
}

const ksMethod = "two-sample Kolmogorov-Smirnov test"

// KolmogorovSmirnov performs the two-sample Kolmogorov–Smirnov test that the
// two samples come from the same continuous distribution. The p-value uses
// the asymptotic Kolmogorov distribution with the Stephens small-sample
// adjustment.
func KolmogorovSmirnov(xs, ys []float64) (TestResult, error) {
	if len(xs) == 0 || len(ys) == 0 {
		return TestResult{}, errSampleTooSmall(ksMethod, 0)
	}
	sx := append([]float64(nil), xs...)
	sy := append([]float64(nil), ys...)
	sort.Float64s(sx)
	sort.Float64s(sy)
	// NaNs sort first; they have no place on the value axis.
	if sx[0] != sx[0] || sy[0] != sy[0] {
		return TestResult{}, fmt.Errorf("stats: Kolmogorov-Smirnov test undefined for NaN observations: %w", ErrDomain)
	}
	// Run-length encode the merged order statistics: one entry per distinct
	// value, holding how many observations of each sample equal it.
	var countsX, countsY []int
	for i, j := 0, 0; i < len(sx) || j < len(sy); {
		v := math.Inf(1)
		if i < len(sx) {
			v = sx[i]
		}
		if j < len(sy) && sy[j] < v {
			v = sy[j]
		}
		i0, j0 := i, j
		for i < len(sx) && sx[i] <= v {
			i++
		}
		for j < len(sy) && sy[j] <= v {
			j++
		}
		countsX, countsY = append(countsX, i-i0), append(countsY, j-j0)
	}
	return KSFromCounts(countsX, countsY)
}

// KSFromCounts is KolmogorovSmirnov on two samples held as counts over one
// shared axis of ascending values: countsX[k] and countsY[k] observations
// equal the k-th value (either may be zero). The statistic is the largest gap
// between the two cumulative histograms — a maximum over ratios of integer
// counts, so every histogram of the same two multisets gives the same bits,
// whatever other values its axis lists.
func KSFromCounts(countsX, countsY []int) (TestResult, error) {
	if len(countsX) != len(countsY) {
		return TestResult{}, errors.New("stats: Kolmogorov-Smirnov counts must share one value axis")
	}
	var totalX, totalY int
	for k := range countsX {
		totalX += countsX[k]
		totalY += countsY[k]
	}
	if totalX == 0 || totalY == 0 {
		return TestResult{}, errSampleTooSmall(ksMethod, minInt(totalX, totalY))
	}
	nx, ny := float64(totalX), float64(totalY)

	var d float64
	i, j := 0, 0
	for k := range countsX {
		i += countsX[k]
		j += countsY[k]
		gap := math.Abs(float64(i)/nx - float64(j)/ny)
		if gap > d {
			d = gap
		}
	}

	ne := nx * ny / (nx + ny)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	p := kolmogorovSurvival(lambda)
	return TestResult{Statistic: d, PValue: p, DF: 0, EffectSize: d, N: totalX + totalY, Method: ksMethod}, nil
}

// kolmogorovSurvival evaluates Q_KS(lambda) = 2 * sum_{k>=1} (-1)^(k-1)
// exp(-2 k^2 lambda^2), clipped to [0, 1].
func kolmogorovSurvival(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	sum := 0.0
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k*k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// FisherExact performs Fisher's exact test on a 2x2 contingency table
// [[a, b], [c, d]], returning the two-sided p-value (sum of all table
// probabilities no larger than the observed one, the standard definition) or
// the requested one-sided tail. The odds ratio is reported as the effect size.
func FisherExact(table [2][2]int, alt Alternative) (TestResult, error) {
	const method = "Fisher exact test"
	a, b, c, d := table[0][0], table[0][1], table[1][0], table[1][1]
	if a < 0 || b < 0 || c < 0 || d < 0 {
		return TestResult{}, fmt.Errorf("stats: %s requires non-negative counts: %w", method, ErrDomain)
	}
	n := a + b + c + d
	if n == 0 {
		return TestResult{}, fmt.Errorf("stats: %s requires a non-empty table: %w", method, ErrEmptySample)
	}
	rowA := a + b
	colA := a + c

	// Hypergeometric probability of a table with top-left cell x given the
	// margins.
	logProb := func(x int) float64 {
		return logChoose(rowA, x) + logChoose(n-rowA, colA-x) - logChoose(n, colA)
	}
	lo := maxInt(0, colA-(n-rowA))
	hi := minInt(rowA, colA)
	observed := logProb(a)

	var p float64
	switch alt {
	case Greater:
		for x := a; x <= hi; x++ {
			p += math.Exp(logProb(x))
		}
	case Less:
		for x := lo; x <= a; x++ {
			p += math.Exp(logProb(x))
		}
	default:
		const slack = 1e-7
		for x := lo; x <= hi; x++ {
			if lp := logProb(x); lp <= observed+slack {
				p += math.Exp(lp)
			}
		}
	}
	if p > 1 {
		p = 1
	}

	odds := math.Inf(1)
	if b > 0 && c > 0 {
		odds = float64(a) * float64(d) / (float64(b) * float64(c))
	}
	return TestResult{Statistic: float64(a), PValue: p, DF: 0, EffectSize: odds, N: n, Method: method}, nil
}

// logChoose returns log(n choose k).
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	return LogGamma(float64(n+1)) - LogGamma(float64(k+1)) - LogGamma(float64(n-k+1))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
