package investing

import (
	"math/rand"
	"testing"

	"aware/internal/multcomp"
	"aware/internal/stats"
)

// simulateStream generates m p-values with the given proportion of true nulls.
// True nulls draw uniform p-values; false nulls draw the p-value of a Welch
// test between two normal samples whose means differ by effect standard
// deviations (per-group sample size n), mirroring the synthetic workload of
// Section 7.1.
func simulateStream(rng *rand.Rand, m int, nullProportion, effect float64, n int) (pvalues []float64, trueNull []bool) {
	pvalues = make([]float64, m)
	trueNull = make([]bool, m)
	for i := 0; i < m; i++ {
		trueNull[i] = rng.Float64() < nullProportion
		mu := effect
		if trueNull[i] {
			mu = 0
		}
		xs := make([]float64, n)
		ys := make([]float64, n)
		for j := 0; j < n; j++ {
			xs[j] = rng.NormFloat64()
			ys[j] = mu + rng.NormFloat64()
		}
		res, err := stats.WelchTTest(ys, xs, stats.TwoSided)
		if err != nil {
			panic(err)
		}
		pvalues[i] = res.PValue
	}
	return pvalues, trueNull
}

// runPolicy replays a fresh instance of the named paper policy over the
// stream and evaluates it against the ground truth.
func runPolicy(t *testing.T, policy Policy, pvalues []float64, trueNull []bool) multcomp.Outcome {
	t.Helper()
	inv, err := NewInvestor(DefaultConfig(), policy)
	if err != nil {
		t.Fatal(err)
	}
	rej, err := inv.Run(pvalues, nil)
	if err != nil {
		t.Fatal(err)
	}
	outcome, err := multcomp.Evaluate(rej, trueNull)
	if err != nil {
		t.Fatal(err)
	}
	return outcome
}

func TestMFDRControlUnderCompleteNull(t *testing.T) {
	// Under the complete null every discovery is false; mFDR_eta must stay at
	// or below alpha. This is the empirical soundness check behind Figure
	// 4(g)(h).
	if testing.Short() {
		t.Skip("simulation test")
	}
	cfg := DefaultConfig()
	const reps = 400
	const m = 32
	rng := rand.New(rand.NewSource(71))

	outcomes := make(map[string][]multcomp.Outcome)
	for r := 0; r < reps; r++ {
		pvalues := make([]float64, m)
		for i := range pvalues {
			pvalues[i] = rng.Float64()
		}
		trueNull := make([]bool, m)
		for i := range trueNull {
			trueNull[i] = true
		}
		for _, pol := range paperPolicies(t) {
			o := runPolicy(t, pol, pvalues, trueNull)
			outcomes[pol.Name()] = append(outcomes[pol.Name()], o)
		}
	}
	for name, os := range outcomes {
		mfdr := multcomp.MarginalFDR(os, cfg.Eta)
		if mfdr > cfg.Alpha+0.02 {
			t.Errorf("%s: empirical mFDR %v exceeds alpha %v under the complete null", name, mfdr, cfg.Alpha)
		}
	}
}

func TestMFDRControlWithMixedSignal(t *testing.T) {
	// 75% true nulls, moderate effects: the realized mFDR of every investing
	// rule should remain at or below alpha (Figure 4(e)).
	if testing.Short() {
		t.Skip("simulation test")
	}
	cfg := DefaultConfig()
	const reps = 200
	const m = 32
	rng := rand.New(rand.NewSource(2017))

	outcomes := make(map[string][]multcomp.Outcome)
	for r := 0; r < reps; r++ {
		pvalues, trueNull := simulateStream(rng, m, 0.75, 1.0, 40)
		for _, pol := range paperPolicies(t) {
			o := runPolicy(t, pol, pvalues, trueNull)
			outcomes[pol.Name()] = append(outcomes[pol.Name()], o)
		}
	}
	for name, os := range outcomes {
		mfdr := multcomp.MarginalFDR(os, cfg.Eta)
		if mfdr > cfg.Alpha+0.025 {
			t.Errorf("%s: empirical mFDR %v exceeds alpha", name, mfdr)
		}
		agg := multcomp.Summarize(os)
		if agg.AvgPower <= 0.05 {
			t.Errorf("%s: power %v suspiciously low for strong effects", name, agg.AvgPower)
		}
	}
}

func TestInvestingBeatsBonferroniPower(t *testing.T) {
	// The motivation for mFDR control: on signal-rich streams the investing
	// rules should recover clearly more power than Bonferroni while PCER
	// (no correction) pays with a much higher FDR under sparse signal.
	if testing.Short() {
		t.Skip("simulation test")
	}
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(99))
	const reps = 100
	const m = 64

	var hybridOutcomes, bonferroniOutcomes []multcomp.Outcome
	for r := 0; r < reps; r++ {
		pvalues, trueNull := simulateStream(rng, m, 0.25, 1.0, 40)
		hybrid, err := NewHybrid(0.5, 10, 10, cfg.Alpha, cfg.InitialWealth(), 0)
		if err != nil {
			t.Fatal(err)
		}
		hybridOutcomes = append(hybridOutcomes, runPolicy(t, hybrid, pvalues, trueNull))

		rej, err := multcomp.Bonferroni{}.Apply(pvalues, cfg.Alpha)
		if err != nil {
			t.Fatal(err)
		}
		o, err := multcomp.Evaluate(rej, trueNull)
		if err != nil {
			t.Fatal(err)
		}
		bonferroniOutcomes = append(bonferroniOutcomes, o)
	}
	hybridPower := multcomp.Summarize(hybridOutcomes).AvgPower
	bonferroniPower := multcomp.Summarize(bonferroniOutcomes).AvgPower
	if hybridPower <= bonferroniPower {
		t.Errorf("epsilon-hybrid power %v should exceed Bonferroni power %v on a 25%%-null stream",
			hybridPower, bonferroniPower)
	}
}
