package stats

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// welfordMoments is the one-pass reduction every sample took before the
// histogram route existed: the reference for wide samples, whose bits must
// not move, and the benchmark's "before".
func welfordMoments(xs []float64) Moments {
	var mean, m2 float64
	for i, x := range xs {
		delta := x - mean
		mean += delta / float64(i+1)
		m2 += delta * (x - mean)
	}
	return Moments{N: len(xs), Mean: mean, M2: m2}
}

func sameMoments(a, b Moments) bool {
	return a.N == b.N && math.Float64bits(a.Mean) == math.Float64bits(b.Mean) &&
		math.Float64bits(a.M2) == math.Float64bits(b.M2)
}

// drawFrom returns n draws from the pool, every pool value at least once.
func drawFrom(rng *rand.Rand, pool []float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = pool[rng.Intn(len(pool))]
	}
	copy(xs, pool)
	rng.Shuffle(n, func(a, b int) { xs[a], xs[b] = xs[b], xs[a] })
	return xs
}

// TestMomentsOfRouteIsAPropertyOfTheValues: up to 256 distinct values and no
// NaN reduce through the histogram — the result ignores row order and equals
// MomentsFromCounts over the sorted distinct values — and one value or one
// NaN more takes Welford's update with the bits it always had, at any length.
func TestMomentsOfRouteIsAPropertyOfTheValues(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := make([]float64, 257)
	for i := range pool {
		pool[i] = rng.NormFloat64() * 100
	}
	for _, tc := range []struct {
		distinct, n int
		counted     bool
	}{
		{1, 1, true}, {1, 40, true}, {2, 2, true}, {90, 5000, true}, {256, 256, true},
		{256, 3000, true}, {257, 257, false}, {257, 3000, false},
	} {
		xs := drawFrom(rng, pool[:tc.distinct], tc.n)
		got := MomentsOf(xs)
		if !tc.counted {
			if want := welfordMoments(xs); !sameMoments(got, want) {
				t.Errorf("%d distinct, n=%d: MomentsOf = %+v, Welford %+v", tc.distinct, tc.n, got, want)
			}
			continue
		}
		values := append([]float64(nil), pool[:tc.distinct]...)
		sort.Float64s(values)
		counts := make([]int, len(values))
		for _, x := range xs {
			counts[sort.SearchFloat64s(values, x)]++
		}
		if want := MomentsFromCounts(values, counts); !sameMoments(got, want) {
			t.Errorf("%d distinct, n=%d: MomentsOf = %+v, from counts %+v", tc.distinct, tc.n, got, want)
		}
		rng.Shuffle(len(xs), func(a, b int) { xs[a], xs[b] = xs[b], xs[a] })
		if again := MomentsOf(xs); !sameMoments(got, again) {
			t.Errorf("%d distinct, n=%d: MomentsOf = %+v, shuffled %+v", tc.distinct, tc.n, got, again)
		}
		if w := welfordMoments(xs); tc.n > 1 && math.Abs(got.M2-w.M2) > 1e-9*w.M2 {
			t.Errorf("%d distinct, n=%d: M2 = %v, Welford %v", tc.distinct, tc.n, got.M2, w.M2)
		}
	}
	withNaN := []float64{1, 2, math.NaN(), 2, 1}
	if got, want := MomentsOf(withNaN), welfordMoments(withNaN); !sameMoments(got, want) {
		t.Errorf("NaN sample: MomentsOf = %+v, Welford %+v", got, want)
	}
	if got := MomentsOf(nil); got != (Moments{}) {
		t.Errorf("MomentsOf(nil) = %+v", got)
	}
}

// TestSortCountedCarriesCounts: random, ascending and descending runs of
// distinct values, the infinities among them, at every length the histogram
// route can hand over.
func TestSortCountedCarriesCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for n := 0; n <= MaxCountedValues; n++ {
		values, counts := make([]float64, n), make([]int, n)
		for i, k := range rng.Perm(n) {
			values[i] = float64(k)/3 - 40
		}
		if n > 2 {
			values[rng.Intn(n)], values[rng.Intn(n)] = math.Inf(1), math.Inf(-1)
		}
		switch n % 3 {
		case 1:
			sort.Float64s(values)
		case 2:
			sort.Sort(sort.Reverse(sort.Float64Slice(values)))
		}
		for i, v := range values {
			counts[i] = int(math.Float64bits(v) >> 40)
		}
		sortCounted(values, counts)
		for i, v := range values {
			if i > 0 && !(values[i-1] <= v) || counts[i] != int(math.Float64bits(v)>>40) {
				t.Fatalf("n=%d: entry %d out of order or parted from its count: %v", n, i, values)
			}
		}
	}
}

// TestMomentsFromCountsSpecials pins the rules a dictionary forces on the
// reduction: a value absent from the sample is skipped even when 0·value is
// NaN, a selected infinity poisons the result the way it does a slice, and
// the two zeros are one value whichever was seen first.
func TestMomentsFromCountsSpecials(t *testing.T) {
	inf := math.Inf(1)
	absent := MomentsFromCounts([]float64{-inf, 1, 2, inf}, []int{0, 3, 4, 0})
	if want := MomentsFromCounts([]float64{1, 2}, []int{3, 4}); !sameMoments(absent, want) || math.IsNaN(absent.M2) {
		t.Errorf("absent infinities: %+v, want %+v", absent, want)
	}
	if got := MomentsOf([]float64{1, 1, 1, 2, 2, 2, 2}); !sameMoments(got, absent) {
		t.Errorf("slice form %+v, counts %+v", got, absent)
	}
	selected := MomentsFromCounts([]float64{1, 2, inf}, []int{3, 4, 1})
	if slice := MomentsOf([]float64{inf, 1, 2, 1, 2, 1, 2, 2}); !sameMoments(selected, slice) || !math.IsNaN(selected.M2) {
		t.Errorf("selected infinity: counts %+v, slice %+v", selected, slice)
	}
	negZero := math.Copysign(0, -1)
	want := MomentsOf([]float64{0, 0, 0, 3})
	for _, xs := range [][]float64{{negZero, 0, 0, 3}, {0, negZero, negZero, 3}, {3, negZero, negZero, negZero}} {
		if got := MomentsOf(xs); !sameMoments(got, want) {
			t.Errorf("MomentsOf(%v) = %+v, want %+v", xs, got, want)
		}
	}
	for _, zero := range []float64{0, negZero} {
		if got := MomentsFromCounts([]float64{zero, 3}, []int{3, 1}); !sameMoments(got, want) {
			t.Errorf("dictionary zero %v: %+v, want %+v", zero, got, want)
		}
	}
	if got := MomentsOf([]float64{negZero, negZero}); math.Signbit(got.Mean) || got.M2 != 0 {
		t.Errorf("all -0: %+v", got)
	}
}

// TestConstantSampleHasExactlyZeroVariance: c copies of v reduce to mean v and
// M2 0 exactly, also where fl(fl(c·v)/c) misses v (3·0.1/3), so every t-test
// answers a constant sample with its zero-variance error and never with a
// p-value computed from rounding residue.
func TestConstantSampleHasExactlyZeroVariance(t *testing.T) {
	wantErr := func(ctx string, err error, text string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), text) {
			t.Errorf("%s: error %v, want one naming %q", ctx, err, text)
		}
	}
	for _, v := range []float64{0.1, 0.2, 1.0 / 3, 7.0 / 3, -0.7, 1e-310, 1e300, 40} {
		for n := 2; n <= 60; n++ {
			xs, ys := make([]float64, n), make([]float64, n+1)
			for i := range xs {
				xs[i] = v
			}
			for i := range ys {
				ys[i] = 2 * v
			}
			ctx := fmt.Sprintf("%d copies of %v", n, v)
			if got, want := MomentsOf(xs), (Moments{N: n, Mean: v}); got != want {
				t.Fatalf("%s: MomentsOf = %+v, want %+v", ctx, got, want)
			}
			axis := []float64{math.Inf(-1), v - 1, v, v + 1, math.Inf(1)}
			if got, want := MomentsFromCounts(axis, []int{0, 0, n, 0, 0}), (Moments{N: n, Mean: v}); got != want {
				t.Fatalf("%s: MomentsFromCounts = %+v, want %+v", ctx, got, want)
			}
			if _, variance, err := MeanVariance(xs); err != nil || variance != 0 {
				t.Fatalf("%s: variance %v (%v)", ctx, variance, err)
			}
			_, err := WelchTTest(xs, ys, TwoSided)
			wantErr(ctx+" against a second constant, Welch", err, "zero-variance")
			_, err = WelchTTest(xs, xs, TwoSided)
			wantErr(ctx+" against itself, Welch", err, "zero-variance")
			_, err = TwoSampleTTest(xs, ys, TwoSided)
			wantErr(ctx+", pooled", err, "zero pooled variance")
		}
	}
}

// exactMoments reduces xs in arbitrary-precision arithmetic.
func exactMoments(xs []float64) (mean, m2 float64) {
	const prec = 400
	big0 := func() *big.Float { return new(big.Float).SetPrec(prec) }
	sum := big0()
	for _, x := range xs {
		sum.Add(sum, big0().SetFloat64(x))
	}
	m := big0().Quo(sum, big0().SetInt64(int64(len(xs))))
	ss := big0()
	for _, x := range xs {
		d := big0().Sub(big0().SetFloat64(x), m)
		ss.Add(ss, d.Mul(d, d))
	}
	mean, _ = m.Float64()
	m2, _ = ss.Float64()
	return mean, m2
}

// TestMomentsFromCountsDoesNotCancel: a large mean over a small spread, and a
// tiny mean over a tinier one, through the histogram route. The two-pass form
// subtracts the mean before squaring, so it stays within 1e-9 relative of the
// exact moments (Welford's update, the previous arithmetic, is itself only
// within 1e-6 of them at mean 1e9, sd 1: it is no reference here).
func TestMomentsFromCountsDoesNotCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tc := range []struct{ mean, sd float64 }{{1e9, 1}, {1e-9, 1e-12}} {
		pool := make([]float64, 200)
		for i := range pool {
			pool[i] = tc.mean + tc.sd*rng.NormFloat64()
		}
		xs := drawFrom(rng, pool, 20_000)
		got, welford := MomentsOf(xs), welfordMoments(xs)
		if sameMoments(got, welford) {
			t.Fatalf("mean %g: the sample did not take the histogram route", tc.mean)
		}
		mean, m2 := exactMoments(xs)
		if math.Abs(got.Mean-mean) > 1e-9*math.Abs(mean) || math.Abs(got.M2-m2) > 1e-9*m2 {
			t.Errorf("mean %g sd %g: histogram %+v, exact mean %v M2 %v", tc.mean, tc.sd, got, mean, m2)
		}
		if math.Abs(welford.M2-m2) > 1e-6*m2 {
			t.Errorf("mean %g sd %g: Welford M2 %v, exact %v", tc.mean, tc.sd, welford.M2, m2)
		}
		t.Logf("mean %g sd %g: relative M2 error histogram %.2g, Welford %.2g", tc.mean, tc.sd,
			math.Abs(got.M2-m2)/m2, math.Abs(welford.M2-m2)/m2)
	}
}

// TestWelchIsOneTestOverMoments: the slice form is the moments form, wide
// samples keep the p-values Welford's moments gave them, and the typed
// errors survive the move.
func TestWelchIsOneTestOverMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	xs, ys := make([]float64, 400), make([]float64, 300)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	for i := range ys {
		ys[i] = 0.2 + 2*rng.NormFloat64()
	}
	for _, alt := range []Alternative{TwoSided, Greater, Less} {
		got, err := WelchTTest(xs, ys, alt)
		want, werr := WelchFromMoments(welfordMoments(xs), welfordMoments(ys), alt)
		if err != nil || werr != nil || got != want {
			t.Errorf("%v: WelchTTest = %+v (%v), over Welford moments %+v (%v)", alt, got, err, want, werr)
		}
	}
	if _, err := WelchTTest([]float64{1}, xs, TwoSided); !errors.Is(err, ErrEmptySample) {
		t.Errorf("one observation: %v", err)
	}
	if _, err := WelchFromMoments(Moments{N: 5, Mean: 7}, Moments{N: 9, Mean: 7}, TwoSided); err == nil {
		t.Error("zero variance on both sides must fail")
	}
}

// legacyKSStatistic is the sweep over the merged order statistics that
// KolmogorovSmirnov ran before it counted runs.
func legacyKSStatistic(xs, ys []float64) float64 {
	sx := append([]float64(nil), xs...)
	sy := append([]float64(nil), ys...)
	sort.Float64s(sx)
	sort.Float64s(sy)
	nx, ny := float64(len(sx)), float64(len(sy))
	var d float64
	i, j := 0, 0
	for i < len(sx) && j < len(sy) {
		v := math.Min(sx[i], sy[j])
		for i < len(sx) && sx[i] <= v {
			i++
		}
		for j < len(sy) && sy[j] <= v {
			j++
		}
		if gap := math.Abs(float64(i)/nx - float64(j)/ny); gap > d {
			d = gap
		}
	}
	return d
}

// TestKSFromCountsMatchesTheSweep: continuous, tie-heavy and disjoint samples
// give the statistic the order-statistic sweep gave, bit for bit, and a
// histogram over a wider axis (zero counts on both sides) gives it too.
func TestKSFromCountsMatchesTheSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	inf := math.Inf(1)
	for trial := 0; trial < 200; trial++ {
		nx, ny, distinct := 1+rng.Intn(300), 1+rng.Intn(300), 1+rng.Intn(40)
		xs, ys := make([]float64, nx), make([]float64, ny)
		draw := func() float64 {
			switch trial % 3 {
			case 0:
				return rng.NormFloat64()
			case 1:
				return float64(rng.Intn(distinct))
			default:
				return []float64{-inf, inf, 0, math.Copysign(0, -1), 1}[rng.Intn(5)]
			}
		}
		for i := range xs {
			xs[i] = draw()
		}
		for i := range ys {
			ys[i] = draw() + float64(trial%2)*0.5
		}
		got, err := KolmogorovSmirnov(xs, ys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := legacyKSStatistic(xs, ys); math.Float64bits(got.Statistic) != math.Float64bits(want) {
			t.Fatalf("trial %d: D = %v, the sweep gave %v", trial, got.Statistic, want)
		}
		if trial%3 != 1 {
			continue
		}
		// The same samples as counts over an axis of whole numbers wider than
		// either holds, offset included.
		cx, cy := make([]int, 2*distinct+4), make([]int, 2*distinct+4)
		for _, x := range xs {
			cx[int(2*x)+2]++
		}
		for _, y := range ys {
			cy[int(2*y)+2]++
		}
		if wide, err := KSFromCounts(cx, cy); err != nil || wide != got {
			t.Fatalf("trial %d: over a wider axis %+v (%v), want %+v", trial, wide, err, got)
		}
	}
	if _, err := KolmogorovSmirnov([]float64{1, math.NaN()}, []float64{1, 2}); !errors.Is(err, ErrDomain) {
		t.Errorf("NaN observation: %v", err)
	}
	if _, err := KSFromCounts([]int{1, 2}, []int{3}); err == nil {
		t.Error("counts over different axes must fail")
	}
	if _, err := KSFromCounts([]int{0, 0}, []int{3, 1}); !errors.Is(err, ErrEmptySample) {
		t.Errorf("empty sample: %v", err)
	}
}

var benchSinkResult TestResult

// BenchmarkWelchSlice times the slice form of the Welch test next to the same
// test over Welford moments (what WelchTTest cost before MomentsOf probed its
// input): small and mid-sized continuous samples, where the probe is pure
// overhead, and a large low-cardinality one, where it replaces a division
// per row.
func BenchmarkWelchSlice(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sample := func(n, distinct int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			if distinct > 0 {
				xs[i] = float64(rng.Intn(distinct))
			} else {
				xs[i] = rng.NormFloat64()
			}
		}
		return xs
	}
	for _, tc := range []struct {
		name        string
		n, distinct int
	}{
		{"n=64/continuous", 64, 0},
		{"n=4096/continuous", 4096, 0},
		{"n=300k/90-distinct", 300_000, 90},
	} {
		xs, ys := sample(tc.n, tc.distinct), sample(tc.n, tc.distinct)
		b.Run(tc.name+"/MomentsOf", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSinkResult, _ = WelchTTest(xs, ys, TwoSided)
			}
		})
		b.Run(tc.name+"/Welford", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSinkResult, _ = WelchFromMoments(welfordMoments(xs), welfordMoments(ys), TwoSided)
			}
		})
	}
}
