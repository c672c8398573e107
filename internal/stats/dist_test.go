package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	n := StandardNormal()
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{2.5758293035489004, 0.995},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := n.CDF(c.x); !approxEqual(got, c.want, 1e-10) {
			t.Errorf("Normal.CDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	n := Normal{Mu: 3, Sigma: 2}
	for _, p := range []float64{0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999} {
		x, err := n.Quantile(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := n.CDF(x); !approxEqual(got, p, 1e-10) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestNormalSurvivalComplement(t *testing.T) {
	n := StandardNormal()
	f := func(x float64) bool {
		x = math.Mod(x, 6)
		return approxEqual(n.CDF(x)+n.Survival(x), 1, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNormalPDFIntegratesToCDF(t *testing.T) {
	// Trapezoidal integration of the PDF should approximate the CDF.
	n := Normal{Mu: -1, Sigma: 1.5}
	lo, hi := -10.0, 1.0
	steps := 20000
	sum := 0.0
	h := (hi - lo) / float64(steps)
	for i := 0; i < steps; i++ {
		x0 := lo + float64(i)*h
		sum += (n.PDF(x0) + n.PDF(x0+h)) / 2 * h
	}
	if !approxEqual(sum, n.CDF(hi), 1e-6) {
		t.Errorf("integral %v vs CDF %v", sum, n.CDF(hi))
	}
}

// TestPDFsIntegrateToCDFs is the same trapezoid check for the t and χ²
// densities: integrated over [lo, hi], each must give CDF(hi) - CDF(lo).
func TestPDFsIntegrateToCDFs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		pdf, cdf func(float64) float64
		lo, hi   float64
	}{
		{"t(5)", StudentT{DF: 5}.PDF, StudentT{DF: 5}.CDF, -3, 2},
		{"chi2(4)", ChiSquared{DF: 4}.PDF, ChiSquared{DF: 4}.CDF, 0.5, 9},
	} {
		const steps = 20000
		h := (tc.hi - tc.lo) / steps
		sum := 0.0
		for i := 0; i < steps; i++ {
			x0 := tc.lo + float64(i)*h
			sum += (tc.pdf(x0) + tc.pdf(x0+h)) / 2 * h
		}
		if want := tc.cdf(tc.hi) - tc.cdf(tc.lo); !approxEqual(sum, want, 1e-6) {
			t.Errorf("%s: integral %v vs CDF difference %v", tc.name, sum, want)
		}
	}
}

func TestNormalInvalidSigma(t *testing.T) {
	n := Normal{Mu: 0, Sigma: 0}
	if !math.IsNaN(n.PDF(0)) || !math.IsNaN(n.CDF(0)) {
		t.Error("expected NaN for sigma <= 0")
	}
}

func TestStudentTCDFKnownValues(t *testing.T) {
	cases := []struct {
		df, x, want float64
	}{
		{1, 0, 0.5},
		{1, 1, 0.75}, // Cauchy
		{2, 1, 0.7886751345948129},
		{10, 2.228138851986273, 0.975}, // t crit for df=10
		{30, 1.6972608943617378, 0.95},
		{5, -2.015048372669157, 0.05},
	}
	for _, c := range cases {
		if got := (StudentT{DF: c.df}).CDF(c.x); !approxEqual(got, c.want, 1e-8) {
			t.Errorf("StudentT{%v}.CDF(%v) = %v, want %v", c.df, c.x, got, c.want)
		}
	}
}

func TestStudentTQuantileRoundTrip(t *testing.T) {
	for _, df := range []float64{1, 2, 5, 10, 30, 120, 3.7} {
		dist := StudentT{DF: df}
		for _, p := range []float64{0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99} {
			x, err := dist.Quantile(p)
			if err != nil {
				t.Fatalf("df=%v p=%v: %v", df, p, err)
			}
			if got := dist.CDF(x); !approxEqual(got, p, 1e-7) {
				t.Errorf("df=%v: CDF(Quantile(%v)) = %v", df, p, got)
			}
		}
	}
}

func TestStudentTSymmetry(t *testing.T) {
	dist := StudentT{DF: 7}
	f := func(x float64) bool {
		x = math.Mod(x, 10)
		return approxEqual(dist.CDF(x), 1-dist.CDF(-x), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStudentTApproachesNormal(t *testing.T) {
	// For large df the t distribution converges to the standard normal.
	tDist := StudentT{DF: 1e6}
	n := StandardNormal()
	for _, x := range []float64{-2, -1, 0, 0.5, 1.5, 2.5} {
		if !approxEqual(tDist.CDF(x), n.CDF(x), 1e-4) {
			t.Errorf("t(1e6).CDF(%v) = %v, normal = %v", x, tDist.CDF(x), n.CDF(x))
		}
	}
}

func TestChiSquaredCDFKnownValues(t *testing.T) {
	cases := []struct {
		df, x, want float64
	}{
		{1, 3.841458820694124, 0.95},
		{2, 5.991464547107979, 0.95},
		{5, 11.070497693516351, 0.95},
		{10, 18.307038053275146, 0.95},
		{1, 6.634896601021213, 0.99},
		{4, 4, 0.5939941502901618},
	}
	for _, c := range cases {
		if got := (ChiSquared{DF: c.df}).CDF(c.x); !approxEqual(got, c.want, 1e-8) {
			t.Errorf("ChiSquared{%v}.CDF(%v) = %v, want %v", c.df, c.x, got, c.want)
		}
	}
}

func TestChiSquaredQuantileRoundTrip(t *testing.T) {
	for _, df := range []float64{1, 2, 3, 7, 20, 64} {
		dist := ChiSquared{DF: df}
		for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999} {
			x, err := dist.Quantile(p)
			if err != nil {
				t.Fatalf("df=%v p=%v: %v", df, p, err)
			}
			if got := dist.CDF(x); !approxEqual(got, p, 1e-8) {
				t.Errorf("df=%v: CDF(Quantile(%v)) = %v", df, p, got)
			}
		}
	}
}

func TestChiSquaredSurvivalComplement(t *testing.T) {
	dist := ChiSquared{DF: 6}
	for _, x := range []float64{0.1, 1, 5, 10, 30} {
		if !approxEqual(dist.CDF(x)+dist.Survival(x), 1, 1e-12) {
			t.Errorf("CDF+Survival != 1 at %v", x)
		}
	}
}

func TestSamplingMatchesMoments(t *testing.T) {
	rng := NewRNG(42)
	const n = 60000

	t.Run("normal", func(t *testing.T) {
		dist := Normal{Mu: 2, Sigma: 3}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = dist.Rand(rng)
		}
		m, v, _ := MeanVariance(xs)
		if math.Abs(m-dist.Mean()) > 0.05 || math.Abs(v-dist.Variance()) > 0.3 {
			t.Errorf("normal sample moments mean=%v var=%v", m, v)
		}
	})
	t.Run("chisquared", func(t *testing.T) {
		dist := ChiSquared{DF: 5}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = dist.Rand(rng)
		}
		m, v, _ := MeanVariance(xs)
		if math.Abs(m-dist.Mean()) > 0.1 || math.Abs(v-dist.Variance()) > 0.6 {
			t.Errorf("chi2 sample moments mean=%v var=%v", m, v)
		}
	})
	t.Run("studentt", func(t *testing.T) {
		dist := StudentT{DF: 12}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = dist.Rand(rng)
		}
		m, v, _ := MeanVariance(xs)
		if math.Abs(m-dist.Mean()) > 0.05 || math.Abs(v-dist.Variance()) > 0.15 {
			t.Errorf("t sample moments mean=%v var=%v", m, v)
		}
	})
	t.Run("fractional chisquared", func(t *testing.T) {
		dist := ChiSquared{DF: 0.7}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = dist.Rand(rng)
		}
		m, _, _ := MeanVariance(xs)
		if math.Abs(m-dist.Mean()) > 0.05 {
			t.Errorf("chi2(0.7) sample mean=%v", m)
		}
	})
}
