package stats

import (
	"math"
	"testing"
)

func TestPowerMatchesPaperSection41(t *testing.T) {
	// The paper's hold-out example: mu1=0, mu2=1, sigma=4 => d = 0.25.
	// One-sided test, 500 records per population: power ~= 0.99.
	p500, err := TwoSampleTTestPower(500, 0.25, 0.05, Greater)
	if err != nil {
		t.Fatal(err)
	}
	if p500 < 0.97 {
		t.Errorf("power(n=500) = %v, paper reports 0.99", p500)
	}
	// 250 records per population: power ~= 0.87.
	p250, err := TwoSampleTTestPower(250, 0.25, 0.05, Greater)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p250-0.87) > 0.03 {
		t.Errorf("power(n=250) = %v, paper reports 0.87", p250)
	}
	// The combined hold-out procedure has power ~= 0.87^2 ~= 0.76.
	combined := p250 * p250
	if math.Abs(combined-0.76) > 0.05 {
		t.Errorf("combined hold-out power = %v, paper reports 0.76", combined)
	}
}

func TestPowerMonotoneInSampleSize(t *testing.T) {
	prev := 0.0
	for _, n := range []int{10, 20, 50, 100, 200, 400} {
		p, err := TwoSampleTTestPower(n, 0.3, 0.05, TwoSided)
		if err != nil {
			t.Fatal(err)
		}
		if p < prev {
			t.Errorf("power not monotone at n=%d: %v < %v", n, p, prev)
		}
		if p < 0 || p > 1 {
			t.Errorf("power out of range: %v", p)
		}
		prev = p
	}
}

func TestPowerMonotoneInEffect(t *testing.T) {
	prev := 0.0
	for _, d := range []float64{0.1, 0.2, 0.4, 0.8, 1.2} {
		p, err := TwoSampleTTestPower(100, d, 0.05, TwoSided)
		if err != nil {
			t.Fatal(err)
		}
		if p < prev {
			t.Errorf("power not monotone at d=%v", d)
		}
		prev = p
	}
}

func TestPowerErrors(t *testing.T) {
	if _, err := TwoSampleTTestPower(1, 0.5, 0.05, TwoSided); err == nil {
		t.Error("expected error for n < 2")
	}
	if _, err := TwoSampleTTestPower(100, 0.5, 0, TwoSided); err == nil {
		t.Error("expected error for alpha = 0")
	}
	if _, err := TwoSampleTTestPower(100, 0.5, 1, TwoSided); err == nil {
		t.Error("expected error for alpha = 1")
	}
}

func TestSampleSizeRoundTrip(t *testing.T) {
	for _, d := range []float64{0.2, 0.5, 0.8} {
		for _, power := range []float64{0.8, 0.9} {
			n, err := TwoSampleTTestSampleSize(d, 0.05, power, TwoSided)
			if err != nil {
				t.Fatal(err)
			}
			got, err := TwoSampleTTestPower(n, d, 0.05, TwoSided)
			if err != nil {
				t.Fatal(err)
			}
			if got < power-0.02 {
				t.Errorf("d=%v power=%v: n=%d achieves only %v", d, power, n, got)
			}
		}
	}
}

func TestSampleSizeKnownValue(t *testing.T) {
	// Classic reference: d=0.5, alpha=0.05 two-sided, power 0.8 => n ~ 63-64 per group.
	n, err := TwoSampleTTestSampleSize(0.5, 0.05, 0.8, TwoSided)
	if err != nil {
		t.Fatal(err)
	}
	if n < 60 || n > 68 {
		t.Errorf("sample size = %d, expected around 63", n)
	}
}

func TestSampleSizeErrors(t *testing.T) {
	if _, err := TwoSampleTTestSampleSize(0, 0.05, 0.8, TwoSided); err == nil {
		t.Error("expected error for zero effect")
	}
	if _, err := TwoSampleTTestSampleSize(0.5, 0.05, 1.2, TwoSided); err == nil {
		t.Error("expected error for power > 1")
	}
}

func TestRequiredMultiplier(t *testing.T) {
	// A medium effect measured on 20 points needs a few times more data for
	// 80% power; a huge effect on 1000 points needs less than the current n.
	mult, err := RequiredMultiplier(20, 0.5, 0.05, 0.8, TwoSided)
	if err != nil {
		t.Fatal(err)
	}
	if mult < 1 {
		t.Errorf("multiplier = %v, expected > 1 for small support", mult)
	}
	multBig, err := RequiredMultiplier(1000, 0.8, 0.05, 0.8, TwoSided)
	if err != nil {
		t.Fatal(err)
	}
	if multBig > 1 {
		t.Errorf("multiplier = %v, expected < 1 for large support and big effect", multBig)
	}
	inf, err := RequiredMultiplier(100, 0, 0.05, 0.8, TwoSided)
	if err != nil || !math.IsInf(inf, 1) {
		t.Errorf("zero effect should need infinite data, got %v, %v", inf, err)
	}
	if _, err := RequiredMultiplier(0, 0.5, 0.05, 0.8, TwoSided); err == nil {
		t.Error("expected error for zero current sample")
	}
}

func TestEffectMagnitudeClassification(t *testing.T) {
	cases := []struct {
		d    float64
		want EffectMagnitude
	}{
		{0.05, EffectNegligible},
		{0.3, EffectSmall},
		{-0.6, EffectMedium},
		{1.1, EffectLarge},
	}
	for _, c := range cases {
		if got := ClassifyCohensD(c.d); got != c.want {
			t.Errorf("ClassifyCohensD(%v) = %v, want %v", c.d, got, c.want)
		}
	}
	vCases := []struct {
		v    float64
		want EffectMagnitude
	}{
		{0.05, EffectNegligible},
		{0.2, EffectSmall},
		{0.4, EffectMedium},
		{0.7, EffectLarge},
	}
	for _, c := range vCases {
		if got := ClassifyCramersV(c.v); got != c.want {
			t.Errorf("ClassifyCramersV(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestSplitRNGIndependence(t *testing.T) {
	parent := NewRNG(123)
	a := SplitRNG(parent)
	b := SplitRNG(parent)
	same := true
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Error("SplitRNG children should differ")
	}
	// Determinism: same seed, same sequence.
	x := NewRNG(55).Float64()
	y := NewRNG(55).Float64()
	if x != y {
		t.Error("NewRNG not deterministic")
	}
}
