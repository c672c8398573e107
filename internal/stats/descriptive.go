package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmptySample is returned when a computation requires at least one (or two)
// observations and the sample is too small.
var ErrEmptySample = errors.New("stats: sample too small")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return math.NaN(), ErrEmptySample
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Variance returns the unbiased (n-1 denominator) sample variance of xs.
func Variance(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return math.NaN(), ErrEmptySample
	}
	m, _ := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1), nil
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return math.NaN(), err
	}
	return math.Sqrt(v), nil
}

// Moments is a sample reduced to what the t-tests read: its size, its mean
// and its sum of squared deviations from the mean.
type Moments struct {
	N    int
	Mean float64
	M2   float64
}

// Variance returns the unbiased (n-1 denominator) sample variance.
func (m Moments) Variance() float64 { return m.M2 / float64(m.N-1) }

const (
	// MaxCountedValues is the most distinct values MomentsOf reduces through a
	// histogram: what a one-byte column code can index, so a byte-encoded
	// column's code histogram and its gathered rows always take one route.
	MaxCountedValues = 256
	// momentSlots sizes MomentsOf's open-addressed value table: a power of
	// two, twice the largest histogram.
	momentSlotBits = 9
	momentSlots    = 1 << momentSlotBits
)

// MomentsFromCounts reduces a sample held as distinct values in ascending
// order, values[i] occurring counts[i] times: the weighted sum, then the
// weighted squared deviations, each accumulated in value order — a function
// of the multiset alone, with no cancellation and no division per row. A zero
// count is skipped, not multiplied: a value absent from the sample, ±Inf
// included, contributes nothing (0·Inf is NaN). The sign of a zero cannot
// reach the result: the sum starts at +0 and never becomes -0. A constant
// sample has its value for a mean and exactly zero M2 — fl(fl(c·v)/c) can
// miss v by an ulp (3·0.1/3), which would leave a variance above zero and
// slip past the t-tests' zero-variance error.
func MomentsFromCounts(values []float64, counts []int) Moments {
	var m Moments
	sum, distinct, last := 0.0, 0, 0
	for i, c := range counts {
		if c != 0 {
			m.N += c
			sum += float64(c) * values[i]
			distinct, last = distinct+1, i
		}
	}
	if distinct <= 1 {
		if distinct == 1 {
			m.Mean = values[last] + 0 // -0 enters as +0 here too
		}
		return m
	}
	m.Mean = sum / float64(m.N)
	for i, c := range counts {
		if c != 0 {
			d := values[i] - m.Mean
			m.M2 += float64(c) * (d * d)
		}
	}
	return m
}

// MomentsOf reduces a sample. One holding at most MaxCountedValues distinct
// values and no NaN is tallied into its value histogram and reduced by
// MomentsFromCounts: the result ignores the order of xs and equals, bit for
// bit, the reduction of any other histogram of the same multiset. Any other
// sample takes Welford's one-pass update in slice order. The route is a
// property of the values alone, never of len(xs).
func MomentsOf(xs []float64) Moments {
	if m, ok := countedMoments(xs); ok {
		return m
	}
	var mean, m2 float64
	for i, x := range xs {
		delta := x - mean
		mean += delta / float64(i+1)
		m2 += delta * (x - mean)
	}
	return Moments{N: len(xs), Mean: mean, M2: m2}
}

// countedMoments is MomentsOf's histogram route; it reports false at a NaN or
// at the first value past MaxCountedValues distinct ones. Values are keyed by
// bit pattern, -0 and +0 under one key, in a small open-addressed table.
func countedMoments(xs []float64) (Moments, bool) {
	var (
		slots  [momentSlots]uint16 // 1 + the index of the slot's value; 0 is a free slot
		values [MaxCountedValues]float64
		counts [MaxCountedValues]int
		n      int
	)
	for _, x := range xs {
		key := math.Float64bits(x)
		if x == 0 {
			key = 0
		}
		h := (key * 0x9e3779b97f4a7c15) >> (64 - momentSlotBits) // Fibonacci hashing
		for {
			at := slots[h]
			if at == 0 {
				if x != x || n == MaxCountedValues {
					return Moments{}, false
				}
				values[n], counts[n] = math.Float64frombits(key), 1
				n++
				slots[h] = uint16(n)
				break
			}
			if math.Float64bits(values[at-1]) == key {
				counts[at-1]++
				break
			}
			h = (h + 1) % momentSlots
		}
	}
	sortCounted(values[:n], counts[:n])
	return MomentsFromCounts(values[:n], counts[:n]), true
}

// sortCounted sorts values ascending and carries counts along: a quicksort
// around the middle element, short runs finished by insertion. Written out
// because it is the whole cost MomentsOf adds to a small sample, and sort.Sort
// or slices.SortFunc over (value, count) pairs take twice its time on 64
// values; at most MaxCountedValues entries bound its worst case.
func sortCounted(values []float64, counts []int) {
	for len(values) > 12 {
		p := values[len(values)/2]
		i, j := 0, len(values)-1
		for i <= j {
			for values[i] < p {
				i++
			}
			for values[j] > p {
				j--
			}
			if i <= j {
				values[i], values[j] = values[j], values[i]
				counts[i], counts[j] = counts[j], counts[i]
				i, j = i+1, j-1
			}
		}
		sortCounted(values[:j+1], counts[:j+1])
		values, counts = values[i:], counts[i:]
	}
	for i := 1; i < len(values); i++ {
		v, c := values[i], counts[i]
		j := i
		for ; j > 0 && values[j-1] > v; j-- {
			values[j], counts[j] = values[j-1], counts[j-1]
		}
		values[j], counts[j] = v, c
	}
}

// MeanVariance returns both mean and unbiased variance of xs, reduced by
// MomentsOf.
func MeanVariance(xs []float64) (mean, variance float64, err error) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN(), ErrEmptySample
	}
	m := MomentsOf(xs)
	return m.Mean, m.Variance(), nil
}

// Median returns the median of xs.
func Median(xs []float64) (float64, error) {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-th sample quantile of xs (linear interpolation
// between order statistics, the "type 7" definition used by R and NumPy).
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return math.NaN(), ErrEmptySample
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN(), ErrDomain
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// MinMax returns the smallest and largest values of xs.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), ErrEmptySample
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// Covariance returns the unbiased sample covariance of paired samples xs, ys.
func Covariance(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return math.NaN(), errors.New("stats: covariance requires samples of equal length")
	}
	if len(xs) < 2 {
		return math.NaN(), ErrEmptySample
	}
	mx, _ := Mean(xs)
	my, _ := Mean(ys)
	sum := 0.0
	for i := range xs {
		sum += (xs[i] - mx) * (ys[i] - my)
	}
	return sum / float64(len(xs)-1), nil
}

// Correlation returns the Pearson correlation coefficient of xs and ys.
func Correlation(xs, ys []float64) (float64, error) {
	cov, err := Covariance(xs, ys)
	if err != nil {
		return math.NaN(), err
	}
	sx, err := StdDev(xs)
	if err != nil {
		return math.NaN(), err
	}
	sy, err := StdDev(ys)
	if err != nil {
		return math.NaN(), err
	}
	if sx == 0 || sy == 0 {
		return math.NaN(), errors.New("stats: correlation undefined for constant sample")
	}
	return cov / (sx * sy), nil
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// Histogram is a simple fixed-width binned histogram over a float sample.
type Histogram struct {
	Edges  []float64 // len(Counts)+1 bin edges, ascending
	Counts []int     // observations per bin
}

// NewHistogram bins xs into bins equal-width bins spanning [min, max].
func NewHistogram(xs []float64, bins int) (*Histogram, error) {
	if len(xs) == 0 {
		return nil, ErrEmptySample
	}
	if bins <= 0 {
		return nil, ErrDomain
	}
	min, max, _ := MinMax(xs)
	if min == max {
		max = min + 1
	}
	h := &Histogram{
		Edges:  make([]float64, bins+1),
		Counts: make([]int, bins),
	}
	width := (max - min) / float64(bins)
	for i := 0; i <= bins; i++ {
		h.Edges[i] = min + float64(i)*width
	}
	for _, x := range xs {
		idx := int((x - min) / width)
		if idx >= bins {
			idx = bins - 1
		}
		if idx < 0 {
			idx = 0
		}
		h.Counts[idx]++
	}
	return h, nil
}

// Total returns the number of observations in the histogram.
func (h *Histogram) Total() int {
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	return total
}

// Proportions returns the per-bin fraction of observations.
func (h *Histogram) Proportions() []float64 {
	total := h.Total()
	props := make([]float64, len(h.Counts))
	if total == 0 {
		return props
	}
	for i, c := range h.Counts {
		props[i] = float64(c) / float64(total)
	}
	return props
}

// ConfidenceInterval95 returns the half-width of a normal-approximation 95%
// confidence interval for the mean of xs: 1.96 * s / sqrt(n).
func ConfidenceInterval95(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, ErrEmptySample
	}
	s, err := StdDev(xs)
	if err != nil {
		return 0, err
	}
	return 1.959963984540054 * s / math.Sqrt(float64(len(xs))), nil
}
