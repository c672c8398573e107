package multcomp

import (
	"fmt"
	"math"
)

// EstimatePi0 estimates the proportion of true null hypotheses π0 from the
// p-value distribution using Storey's fixed-λ estimator:
// π0 = #{p_i > λ} / (m·(1-λ)). The estimate is clipped to (0, 1]. λ = 0.5 is
// the conventional default.
func EstimatePi0(pvalues []float64, lambda float64) (float64, error) {
	if err := validate(pvalues, 0.5); err != nil {
		return math.NaN(), err
	}
	if lambda <= 0 || lambda >= 1 || math.IsNaN(lambda) {
		return math.NaN(), fmt.Errorf("%w: lambda must be in (0, 1), got %v", ErrInvalidAlpha, lambda)
	}
	m := len(pvalues)
	if m == 0 {
		return 1, nil
	}
	above := 0
	for _, p := range pvalues {
		if p > lambda {
			above++
		}
	}
	pi0 := float64(above) / (float64(m) * (1 - lambda))
	if pi0 > 1 {
		pi0 = 1
	}
	if pi0 <= 0 {
		pi0 = 1 / float64(m) // never claim there are no true nulls at all
	}
	return pi0, nil
}

// StoreyAdaptiveBH is the adaptive Benjamini–Hochberg procedure: it first
// estimates π0 with Storey's estimator and then runs BH at the inflated level
// α/π0, recovering power when many hypotheses are false. Lambda is the
// estimator's tuning parameter (0 selects the conventional 0.5).
type StoreyAdaptiveBH struct {
	Lambda float64
}

// Name implements Procedure.
func (s StoreyAdaptiveBH) Name() string { return "AdaptiveBH" }

// Apply implements Procedure.
func (s StoreyAdaptiveBH) Apply(pvalues []float64, alpha float64) ([]bool, error) {
	if err := validate(pvalues, alpha); err != nil {
		return nil, err
	}
	lambda := s.Lambda
	if lambda == 0 {
		lambda = 0.5
	}
	pi0, err := EstimatePi0(pvalues, lambda)
	if err != nil {
		return nil, err
	}
	adjusted := alpha / pi0
	if adjusted >= 1 {
		adjusted = 0.999999
	}
	return stepUpFDR(pvalues, adjusted)
}

// TwoStageAdaptiveBH is the Benjamini–Krieger–Yekutieli two-stage adaptive
// procedure: a first BH pass at level α/(1+α) estimates the number of true
// nulls as m minus the first-stage rejections, and a second BH pass runs at
// level α·m/m0. It controls the FDR at α under independence.
type TwoStageAdaptiveBH struct{}

// Name implements Procedure.
func (TwoStageAdaptiveBH) Name() string { return "TwoStageBH" }

// Apply implements Procedure.
func (TwoStageAdaptiveBH) Apply(pvalues []float64, alpha float64) ([]bool, error) {
	if err := validate(pvalues, alpha); err != nil {
		return nil, err
	}
	m := len(pvalues)
	if m == 0 {
		return nil, nil
	}
	alphaPrime := alpha / (1 + alpha)
	first, err := stepUpFDR(pvalues, alphaPrime)
	if err != nil {
		return nil, err
	}
	r1 := 0
	for _, rej := range first {
		if rej {
			r1++
		}
	}
	if r1 == 0 {
		return first, nil // nothing rejected: stop with no discoveries
	}
	if r1 == m {
		return first, nil // everything rejected at the stricter level already
	}
	m0 := m - r1
	secondLevel := alphaPrime * float64(m) / float64(m0)
	if secondLevel >= 1 {
		secondLevel = 0.999999
	}
	return stepUpFDR(pvalues, secondLevel)
}
