// Package multcomp implements the multiple-comparison procedures the paper
// uses as baselines (Section 4): per-comparison error rate (no correction),
// Bonferroni, Benjamini–Hochberg and the incremental Sequential FDR /
// ForwardStop procedure of G'Sell et al., plus the two adaptive BH variants
// the aware package exports. It also provides the confusion-matrix metrics
// (FDR, FWER, power) used throughout the evaluation.
//
// All batch procedures implement the Procedure interface: they receive the
// complete vector of p-values and return one rejection decision per
// hypothesis. The α-investing procedures, which consume hypotheses one at a
// time, live in the sibling package internal/investing.
package multcomp

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrInvalidAlpha is returned when a significance level outside (0, 1) is
// supplied.
var ErrInvalidAlpha = errors.New("multcomp: alpha must be in (0, 1)")

// ErrInvalidPValue is returned when a p-value outside [0, 1] (or NaN) is
// supplied.
var ErrInvalidPValue = errors.New("multcomp: p-values must lie in [0, 1]")

// Procedure is a batch multiple-hypothesis testing procedure: given all
// p-values at once it decides which null hypotheses to reject.
type Procedure interface {
	// Name returns a short human-readable identifier, e.g. "BHFDR".
	Name() string
	// Apply returns a rejection decision per p-value at significance level
	// alpha. The returned slice has the same length and order as pvalues.
	Apply(pvalues []float64, alpha float64) ([]bool, error)
}

// validate checks alpha and the p-value vector.
func validate(pvalues []float64, alpha float64) error {
	if alpha <= 0 || alpha >= 1 || math.IsNaN(alpha) {
		return fmt.Errorf("%w: got %v", ErrInvalidAlpha, alpha)
	}
	for i, p := range pvalues {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("%w: p[%d] = %v", ErrInvalidPValue, i, p)
		}
	}
	return nil
}

// indexedPValue pairs a p-value with its original position so that step-up /
// step-down procedures can sort and then report decisions in input order.
type indexedPValue struct {
	p   float64
	idx int
}

// sortPValues returns the p-values sorted ascending together with their
// original indices.
func sortPValues(pvalues []float64) []indexedPValue {
	out := make([]indexedPValue, len(pvalues))
	for i, p := range pvalues {
		out[i] = indexedPValue{p: p, idx: i}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].p < out[j].p })
	return out
}

// PCER is the "per-comparison error rate" non-procedure: every hypothesis is
// tested at level alpha with no correction at all. The paper uses it to show
// what happens when the multiplicity problem is ignored.
type PCER struct{}

// Name implements Procedure.
func (PCER) Name() string { return "PCER" }

// Apply implements Procedure.
func (PCER) Apply(pvalues []float64, alpha float64) ([]bool, error) {
	if err := validate(pvalues, alpha); err != nil {
		return nil, err
	}
	out := make([]bool, len(pvalues))
	for i, p := range pvalues {
		out[i] = p <= alpha
	}
	return out, nil
}

// Bonferroni is the classic Bonferroni correction: reject H_i iff
// p_i <= alpha / m. It controls the FWER in the strong sense.
type Bonferroni struct{}

// Name implements Procedure.
func (Bonferroni) Name() string { return "Bonferroni" }

// Apply implements Procedure.
func (Bonferroni) Apply(pvalues []float64, alpha float64) ([]bool, error) {
	if err := validate(pvalues, alpha); err != nil {
		return nil, err
	}
	m := float64(len(pvalues))
	out := make([]bool, len(pvalues))
	if m == 0 {
		return out, nil
	}
	threshold := alpha / m
	for i, p := range pvalues {
		out[i] = p <= threshold
	}
	return out, nil
}

// BenjaminiHochberg is the classic step-up FDR-controlling procedure: find the
// largest k with p_(k) <= k*alpha/m and reject the k smallest p-values.
type BenjaminiHochberg struct{}

// Name implements Procedure.
func (BenjaminiHochberg) Name() string { return "BHFDR" }

// Apply implements Procedure.
func (BenjaminiHochberg) Apply(pvalues []float64, alpha float64) ([]bool, error) {
	if err := validate(pvalues, alpha); err != nil {
		return nil, err
	}
	return stepUpFDR(pvalues, alpha)
}

// stepUpFDR implements the BH step-up rule at level alpha.
func stepUpFDR(pvalues []float64, alpha float64) ([]bool, error) {
	m := len(pvalues)
	out := make([]bool, m)
	if m == 0 {
		return out, nil
	}
	sorted := sortPValues(pvalues)
	cut := -1
	for k := m - 1; k >= 0; k-- {
		if sorted[k].p <= float64(k+1)*alpha/float64(m) {
			cut = k
			break
		}
	}
	for k := 0; k <= cut; k++ {
		out[sorted[k].idx] = true
	}
	return out, nil
}
