package stats

import (
	"math"
	"math/rand"
)

// Normal is a Gaussian distribution with mean Mu and standard deviation Sigma.
type Normal struct {
	Mu    float64
	Sigma float64
}

// StandardNormal returns the standard normal distribution N(0, 1).
func StandardNormal() Normal { return Normal{Mu: 0, Sigma: 1} }

// PDF returns the probability density at x.
func (n Normal) PDF(x float64) float64 {
	if n.Sigma <= 0 {
		return math.NaN()
	}
	z := (x - n.Mu) / n.Sigma
	return math.Exp(-0.5*z*z) / (n.Sigma * math.Sqrt(2*math.Pi))
}

// CDF returns P(X <= x).
func (n Normal) CDF(x float64) float64 {
	if n.Sigma <= 0 {
		return math.NaN()
	}
	z := (x - n.Mu) / (n.Sigma * math.Sqrt2)
	return 0.5 * math.Erfc(-z)
}

// Survival returns P(X > x) with better precision in the upper tail than
// 1 - CDF(x).
func (n Normal) Survival(x float64) float64 {
	if n.Sigma <= 0 {
		return math.NaN()
	}
	z := (x - n.Mu) / (n.Sigma * math.Sqrt2)
	return 0.5 * math.Erfc(z)
}

// Quantile returns the value x such that CDF(x) = p for p in (0, 1).
func (n Normal) Quantile(p float64) (float64, error) {
	if n.Sigma <= 0 || p <= 0 || p >= 1 || math.IsNaN(p) {
		if p == 0 {
			return math.Inf(-1), nil
		}
		if p == 1 {
			return math.Inf(1), nil
		}
		return math.NaN(), ErrDomain
	}
	z, err := ErfInverse(2*p - 1)
	if err != nil {
		return math.NaN(), err
	}
	return n.Mu + n.Sigma*math.Sqrt2*z, nil
}

// Rand draws a sample using the supplied random source.
func (n Normal) Rand(rng *rand.Rand) float64 {
	return n.Mu + n.Sigma*rng.NormFloat64()
}

// Mean returns the distribution mean.
func (n Normal) Mean() float64 { return n.Mu }

// Variance returns the distribution variance.
func (n Normal) Variance() float64 { return n.Sigma * n.Sigma }
