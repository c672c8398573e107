package multcomp

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func TestPCERRejectsAtRawThreshold(t *testing.T) {
	p := []float64{0.01, 0.04, 0.05, 0.051, 0.9}
	rej, err := PCER{}.Apply(p, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, true, false, false}
	for i := range want {
		if rej[i] != want[i] {
			t.Errorf("PCER[%d] = %v, want %v", i, rej[i], want[i])
		}
	}
}

func TestBonferroniThreshold(t *testing.T) {
	p := []float64{0.004, 0.006, 0.2, 0.9, 0.01}
	rej, err := Bonferroni{}.Apply(p, 0.05) // threshold 0.01
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, false, false, true}
	for i := range want {
		if rej[i] != want[i] {
			t.Errorf("Bonferroni[%d] = %v, want %v", i, rej[i], want[i])
		}
	}
}

func TestBonferroniNeverRejectsMoreThanBH(t *testing.T) {
	f := func(seed int64, mRaw uint8) bool {
		m := int(mRaw%64) + 1
		rng := rand.New(rand.NewSource(seed))
		p := make([]float64, m)
		for i := range p {
			p[i] = rng.Float64()
		}
		bon, err1 := Bonferroni{}.Apply(p, 0.05)
		bh, err2 := BenjaminiHochberg{}.Apply(p, 0.05)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range p {
			if bon[i] && !bh[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBenjaminiHochbergKnownExample(t *testing.T) {
	// Example from Benjamini & Hochberg (1995), alpha = 0.05, m = 15.
	p := []float64{
		0.0001, 0.0004, 0.0019, 0.0095, 0.0201,
		0.0278, 0.0298, 0.0344, 0.0459, 0.3240,
		0.4262, 0.5719, 0.6528, 0.7590, 1.0000,
	}
	rej, err := BenjaminiHochberg{}.Apply(p, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got := countTrue(rej); got != 4 {
		t.Errorf("BH rejects %d hypotheses, the published example rejects 4", got)
	}
	for i := 0; i < 4; i++ {
		if !rej[i] {
			t.Errorf("BH should reject the %d smallest p-values", 4)
		}
	}
}

// bhAdjusted is the Benjamini–Hochberg adjusted p-value (q-value) of each
// hypothesis, computed on its own as the test's reference: the running
// minimum of p_(k)·m/k from the largest p-value down, in input order.
func bhAdjusted(pvalues []float64) []float64 {
	m := len(pvalues)
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return pvalues[order[a]] < pvalues[order[b]] })
	adj := make([]float64, m)
	running := 1.0
	for k := m - 1; k >= 0; k-- {
		running = math.Min(running, pvalues[order[k]]*float64(m)/float64(k+1))
		adj[order[k]] = running
	}
	return adj
}

// TestAdjustedPValuesBH holds BH to its adjusted p-values, computed by the
// test-local reference bhAdjusted: at any level alpha BH rejects exactly the
// hypotheses whose q-value is <= alpha.
func TestAdjustedPValuesBH(t *testing.T) {
	// The reference itself, on a case worked by hand.
	for i, q := range bhAdjusted([]float64{0.01, 0.02, 0.03, 0.04}) {
		if math.Abs(q-0.04) > 1e-12 {
			t.Errorf("q[%d] = %v, want 0.04", i, q)
		}
	}
	f := func(seed int64, mRaw uint8) bool {
		m := int(mRaw%64) + 1
		rng := rand.New(rand.NewSource(seed))
		p := make([]float64, m)
		for i := range p {
			p[i] = rng.Float64() * rng.Float64()
		}
		q := bhAdjusted(p)
		for _, alpha := range []float64{0.01, 0.05, 0.1, 0.2} {
			rej, err := BenjaminiHochberg{}.Apply(p, alpha)
			if err != nil {
				return false
			}
			for i := range p {
				if rej[i] != (q[i] <= alpha) {
					t.Logf("alpha=%v i=%d: BH=%v q=%v", alpha, i, rej[i], q[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestValidationErrors(t *testing.T) {
	for _, proc := range []Procedure{PCER{}, Bonferroni{}, BenjaminiHochberg{}, SequentialFDR{}, StoreyAdaptiveBH{}, TwoStageAdaptiveBH{}} {
		if proc.Name() == "" {
			t.Error("procedure with empty name")
		}
		if _, err := proc.Apply([]float64{0.5}, 0); !errors.Is(err, ErrInvalidAlpha) {
			t.Errorf("%s: expected alpha error", proc.Name())
		}
		if _, err := proc.Apply([]float64{1.5}, 0.05); !errors.Is(err, ErrInvalidPValue) {
			t.Errorf("%s: expected p-value error", proc.Name())
		}
		if _, err := proc.Apply([]float64{math.NaN()}, 0.05); !errors.Is(err, ErrInvalidPValue) {
			t.Errorf("%s: expected NaN p-value error", proc.Name())
		}
		// Empty input is fine and rejects nothing.
		rej, err := proc.Apply(nil, 0.05)
		if err != nil || len(rej) != 0 {
			t.Errorf("%s: empty input should be accepted", proc.Name())
		}
	}
}

func TestDecisionsMatchInputOrder(t *testing.T) {
	// The procedures must report decisions in input order even though they
	// sort internally.
	p := []float64{0.9, 0.0001, 0.5, 0.003}
	for _, proc := range []Procedure{Bonferroni{}, BenjaminiHochberg{}, StoreyAdaptiveBH{}, TwoStageAdaptiveBH{}} {
		rej, err := proc.Apply(p, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if rej[0] {
			t.Errorf("%s rejected the 0.9 p-value", proc.Name())
		}
		if !rej[1] {
			t.Errorf("%s failed to reject the 0.0001 p-value", proc.Name())
		}
	}
}

func TestFWERControlUnderCompleteNullSimulation(t *testing.T) {
	// Empirical check: under the complete null, Bonferroni keeps the
	// probability of any false rejection at or below ~alpha.
	rng := rand.New(rand.NewSource(2024))
	const reps = 2000
	const m = 20
	alpha := 0.05
	falseAny := map[string]int{}
	for r := 0; r < reps; r++ {
		p := make([]float64, m)
		for i := range p {
			p[i] = rng.Float64()
		}
		for _, proc := range []Procedure{Bonferroni{}} {
			rej, err := proc.Apply(p, alpha)
			if err != nil {
				t.Fatal(err)
			}
			if countTrue(rej) > 0 {
				falseAny[proc.Name()]++
			}
		}
	}
	for name, count := range falseAny {
		fwer := float64(count) / reps
		if fwer > alpha+0.02 {
			t.Errorf("%s empirical FWER %v exceeds alpha", name, fwer)
		}
	}
}

func TestBHControlsFDRSimulation(t *testing.T) {
	// 75% true nulls with uniform p-values, 25% false nulls with tiny
	// p-values; BH should keep average FDP near alpha * pi0 <= alpha.
	rng := rand.New(rand.NewSource(7))
	const reps = 1000
	const m = 40
	alpha := 0.05
	var outcomes []Outcome
	for r := 0; r < reps; r++ {
		p := make([]float64, m)
		trueNull := make([]bool, m)
		for i := range p {
			if i%4 == 0 { // 25% false nulls
				p[i] = rng.Float64() * 1e-4
			} else {
				trueNull[i] = true
				p[i] = rng.Float64()
			}
		}
		rej, err := BenjaminiHochberg{}.Apply(p, alpha)
		if err != nil {
			t.Fatal(err)
		}
		o, err := Evaluate(rej, trueNull)
		if err != nil {
			t.Fatal(err)
		}
		outcomes = append(outcomes, o)
	}
	agg := Summarize(outcomes)
	if agg.AvgFDR > alpha+0.01 {
		t.Errorf("BH average FDR %v exceeds alpha %v", agg.AvgFDR, alpha)
	}
	if agg.AvgPower < 0.95 {
		t.Errorf("BH power %v unexpectedly low for huge effects", agg.AvgPower)
	}
}
