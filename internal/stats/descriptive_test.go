package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVarianceBasics(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, err := Mean(xs)
	if err != nil || m != 5 {
		t.Fatalf("Mean = %v, %v", m, err)
	}
	v, err := Variance(xs)
	if err != nil || !approxEqual(v, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, %v", v, err)
	}
	s, err := StdDev(xs)
	if err != nil || !approxEqual(s, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("StdDev = %v, %v", s, err)
	}
	m2, v2, err := MeanVariance(xs)
	if err != nil || !approxEqual(m2, m, 1e-12) || !approxEqual(v2, v, 1e-12) {
		t.Fatalf("MeanVariance = %v, %v, %v", m2, v2, err)
	}
}

func TestMeanVarianceErrors(t *testing.T) {
	if _, err := Mean(nil); !errors.Is(err, ErrEmptySample) {
		t.Error("Mean(nil) should fail")
	}
	if _, err := Variance([]float64{1}); !errors.Is(err, ErrEmptySample) {
		t.Error("Variance of single value should fail")
	}
	if _, _, err := MeanVariance([]float64{1}); !errors.Is(err, ErrEmptySample) {
		t.Error("MeanVariance of single value should fail")
	}
}

func TestWelfordMatchesTwoPass(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = math.Mod(v, 1e6)
			if math.IsNaN(xs[i]) {
				xs[i] = 0
			}
		}
		m1, _ := Mean(xs)
		v1, _ := Variance(xs)
		m2, v2, _ := MeanVariance(xs)
		return approxEqual(m1, m2, 1e-9) && approxEqual(v1, v2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	min, max, err := MinMax([]float64{3, -2, 8, 0})
	if err != nil || min != -2 || max != 8 {
		t.Fatalf("MinMax = %v, %v, %v", min, max, err)
	}
	if _, _, err := MinMax(nil); err == nil {
		t.Error("expected error for empty input")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 0.1, 0.2, 0.5, 0.6, 0.9, 1.0}
	h, err := NewHistogram(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts[0] != 3 || h.Counts[1] != 4 {
		t.Fatalf("Counts = %v", h.Counts)
	}
	if len(h.Edges) != 3 || h.Edges[0] != 0 || h.Edges[1] != 0.5 || h.Edges[2] != 1 {
		t.Fatalf("Edges = %v", h.Edges)
	}
	if _, err := NewHistogram(nil, 3); err == nil {
		t.Error("expected error for empty sample")
	}
	if _, err := NewHistogram(xs, 0); err == nil {
		t.Error("expected error for zero bins")
	}
	// Constant sample should still produce a valid histogram.
	hc, err := NewHistogram([]float64{5, 5, 5}, 4)
	if err != nil || hc.Counts[0] != 3 {
		t.Fatalf("constant histogram: %v, %v", hc, err)
	}
}

func TestConfidenceInterval95(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	ci, err := ConfidenceInterval95(xs)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := StdDev(xs)
	want := 1.959963984540054 * s / 10
	if !approxEqual(ci, want, 1e-12) {
		t.Fatalf("CI = %v, want %v", ci, want)
	}
	if _, err := ConfidenceInterval95([]float64{1}); err == nil {
		t.Error("expected error for tiny sample")
	}
}
