package simulation

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// testReps keeps the experiment tests fast while retaining statistical
// resolution; the paper uses 1000.
const testReps = 400

func TestRunPointValidation(t *testing.T) {
	source := func(rng *rand.Rand) (Stream, error) {
		return GenerateSynthetic(DefaultSyntheticConfig(8, 1), rng)
	}
	if _, err := RunPoint(nil, StaticRunners(), PaperAlpha, 10, 1, 8); err == nil {
		t.Error("nil source should fail")
	}
	if _, err := RunPoint(source, nil, PaperAlpha, 10, 1, 8); err == nil {
		t.Error("no runners should fail")
	}
	if _, err := RunPoint(source, StaticRunners(), PaperAlpha, 0, 1, 8); err == nil {
		t.Error("zero replications should fail")
	}
	ms, err := RunPoint(source, StaticRunners(), PaperAlpha, 10, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(StaticRunners()) {
		t.Errorf("measurements = %d", len(ms))
	}
	for _, m := range ms {
		if m.X != 8 || m.Replications != 10 {
			t.Errorf("measurement metadata %+v", m)
		}
	}
}

// FilterMeasurements returns the measurements for a single procedure, in
// sweep order — convenient for asserting monotone trends in tests.
func FilterMeasurements(ms []Measurement, procedure string) []Measurement {
	var out []Measurement
	for _, m := range ms {
		if m.Procedure == procedure {
			out = append(out, m)
		}
	}
	return out
}

func TestRunnerByName(t *testing.T) {
	want := []string{"PCER", "Bonferroni", "BHFDR", "SeqFDR", "beta-farsighted", "gamma-fixed", "delta-hopeful", "epsilon-hybrid", "psi-support"}
	runners := append(StaticRunners(), IncrementalRunners()...)
	if len(runners) != len(want) {
		t.Fatalf("%d runners, want %d", len(runners), len(want))
	}
	for i, r := range runners {
		if r.Name() != want[i] {
			t.Errorf("runner %d is %q, want %q", i, r.Name(), want[i])
		}
	}
	if _, err := investingRunner("nope").Run(Stream{PValues: []float64{0.5}}, PaperAlpha); err == nil {
		t.Error("unknown rule should fail")
	}
}

func TestExp1aReproducesFigure3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	// 75% null configuration (Figure 3 a-c).
	ms, err := Exp1a(Exp1aConfig{NullProportion: 0.75, Replications: testReps, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	pcer := FilterMeasurements(ms, "PCER")
	bonferroni := FilterMeasurements(ms, "Bonferroni")
	bh := FilterMeasurements(ms, "BHFDR")
	if len(pcer) != len(HypothesisCounts) {
		t.Fatalf("pcer points = %d", len(pcer))
	}
	for i := range pcer {
		// Power ordering: PCER >= BHFDR >= Bonferroni (Figure 3c).
		if pcer[i].AvgPower < bh[i].AvgPower-0.03 {
			t.Errorf("m=%v: PCER power %v should be >= BH power %v", pcer[i].X, pcer[i].AvgPower, bh[i].AvgPower)
		}
		if bh[i].AvgPower < bonferroni[i].AvgPower-0.03 {
			t.Errorf("m=%v: BH power %v should be >= Bonferroni power %v", bh[i].X, bh[i].AvgPower, bonferroni[i].AvgPower)
		}
		// FDR ordering: PCER >= BHFDR, Bonferroni lowest (Figure 3b).
		if pcer[i].AvgFDR < bh[i].AvgFDR-0.02 {
			t.Errorf("m=%v: PCER FDR %v should exceed BH FDR %v", pcer[i].X, pcer[i].AvgFDR, bh[i].AvgFDR)
		}
		if bonferroni[i].AvgFDR > bh[i].AvgFDR+0.02 {
			t.Errorf("m=%v: Bonferroni FDR %v should be below BH FDR %v", bonferroni[i].X, bonferroni[i].AvgFDR, bh[i].AvgFDR)
		}
		// BH controls FDR at alpha.
		if bh[i].AvgFDR > PaperAlpha+0.02 {
			t.Errorf("m=%v: BH FDR %v exceeds alpha", bh[i].X, bh[i].AvgFDR)
		}
		// Discoveries: PCER makes the most.
		if pcer[i].AvgDiscoveries < bonferroni[i].AvgDiscoveries {
			t.Errorf("m=%v: PCER discoveries %v below Bonferroni %v", pcer[i].X, pcer[i].AvgDiscoveries, bonferroni[i].AvgDiscoveries)
		}
	}
	// Bonferroni power should visibly degrade as m grows (Figure 3c).
	if bonferroni[len(bonferroni)-1].AvgPower >= bonferroni[0].AvgPower {
		t.Errorf("Bonferroni power should decrease with m: %v -> %v",
			bonferroni[0].AvgPower, bonferroni[len(bonferroni)-1].AvgPower)
	}
}

func TestExp1aCompleteNullFDRGrowsForPCER(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	// 100% null configuration (Figure 3 d-e): PCER's FDR grows toward ~60% at
	// m=64 while Bonferroni and BH stay at or below alpha-ish levels.
	ms, err := Exp1a(Exp1aConfig{NullProportion: 1.0, Replications: testReps, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pcer := FilterMeasurements(ms, "PCER")
	bh := FilterMeasurements(ms, "BHFDR")
	bonferroni := FilterMeasurements(ms, "Bonferroni")
	last := len(pcer) - 1
	if pcer[last].AvgFDR < 0.4 {
		t.Errorf("PCER FDR at m=64 under complete null = %v, paper reports ~0.6", pcer[last].AvgFDR)
	}
	if bh[last].AvgFDR > PaperAlpha+0.02 {
		t.Errorf("BH FDR under complete null = %v", bh[last].AvgFDR)
	}
	if bonferroni[last].AvgFDR > PaperAlpha+0.02 {
		t.Errorf("Bonferroni FDR under complete null = %v", bonferroni[last].AvgFDR)
	}
	// Under the complete null power is undefined (NaN).
	if !math.IsNaN(pcer[last].AvgPower) {
		t.Errorf("power should be NaN under the complete null, got %v", pcer[last].AvgPower)
	}
}

func TestExp1bReproducesFigure4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	// 75% null configuration (Figure 4 d-f).
	ms, err := Exp1b(Exp1bConfig{NullProportion: 0.75, Replications: testReps, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"SeqFDR", "beta-farsighted", "gamma-fixed", "delta-hopeful", "epsilon-hybrid", "psi-support"}
	for _, name := range names {
		points := FilterMeasurements(ms, name)
		if len(points) != len(HypothesisCounts) {
			t.Fatalf("%s: %d points", name, len(points))
		}
		for _, p := range points {
			// Figure 4(e): every incremental procedure controls FDR near alpha.
			if p.AvgFDR > PaperAlpha+0.03 {
				t.Errorf("%s at m=%v: FDR %v exceeds alpha", name, p.X, p.AvgFDR)
			}
			// The α-investing rules retain non-trivial power on a 25%-signal
			// stream (SeqFDR is excluded: with randomly ordered hypotheses the
			// ForwardStop rule stops almost immediately, which is exactly the
			// ordering-sensitivity the paper criticises in Section 4.3).
			if name != "SeqFDR" && p.AvgPower < 0.1 {
				t.Errorf("%s at m=%v: power %v suspiciously low", name, p.X, p.AvgPower)
			}
		}
	}
	// beta-farsighted has high power early (few hypotheses) that declines
	// with longer streams (Section 7.2.1).
	farsighted := FilterMeasurements(ms, "beta-farsighted")
	if farsighted[0].AvgPower < farsighted[len(farsighted)-1].AvgPower {
		t.Errorf("beta-farsighted power should decline with m: %v -> %v",
			farsighted[0].AvgPower, farsighted[len(farsighted)-1].AvgPower)
	}
}

func TestExp1bCompleteNullControlsMFDR(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	ms, err := Exp1b(Exp1bConfig{NullProportion: 1.0, Replications: testReps, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		// Allow generous Monte-Carlo slack: with V in {0, 1, 2} per replication
		// the mFDR estimate has a standard error of roughly 0.015 at this
		// replication count.
		if m.MarginalFDR > PaperAlpha+0.045 {
			t.Errorf("%s at m=%v: mFDR %v exceeds alpha under the complete null", m.Procedure, m.X, m.MarginalFDR)
		}
		if m.AvgDiscoveries > 1 {
			t.Errorf("%s at m=%v: %v discoveries under the complete null", m.Procedure, m.X, m.AvgDiscoveries)
		}
	}
}

func TestExp1bRandomnessRegimes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	// Section 7.2.2: with little randomness (25% null) delta-hopeful should be
	// at least as powerful as gamma-fixed at the longest stream; with much
	// randomness (75% null and more) gamma-fixed tends to win. epsilon-hybrid
	// should track the better of the two within a small margin in both
	// regimes.
	lowRandom, err := Exp1b(Exp1bConfig{NullProportion: 0.25, Replications: testReps, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	highRandom, err := Exp1b(Exp1bConfig{NullProportion: 0.75, Replications: testReps, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	last := len(HypothesisCounts) - 1
	lowFixed := FilterMeasurements(lowRandom, "gamma-fixed")[last]
	lowHopeful := FilterMeasurements(lowRandom, "delta-hopeful")[last]
	lowHybrid := FilterMeasurements(lowRandom, "epsilon-hybrid")[last]
	if lowHopeful.AvgPower < lowFixed.AvgPower-0.05 {
		t.Errorf("25%% null, m=64: delta-hopeful power %v should not trail gamma-fixed %v",
			lowHopeful.AvgPower, lowFixed.AvgPower)
	}
	if lowHybrid.AvgPower < math.Max(lowFixed.AvgPower, lowHopeful.AvgPower)-0.12 {
		t.Errorf("25%% null: hybrid power %v should track the best of fixed %v / hopeful %v",
			lowHybrid.AvgPower, lowFixed.AvgPower, lowHopeful.AvgPower)
	}
	highFixed := FilterMeasurements(highRandom, "gamma-fixed")[last]
	highHopeful := FilterMeasurements(highRandom, "delta-hopeful")[last]
	highHybrid := FilterMeasurements(highRandom, "epsilon-hybrid")[last]
	if highFixed.AvgPower < highHopeful.AvgPower-0.1 {
		t.Errorf("75%% null, m=64: gamma-fixed power %v should not trail delta-hopeful %v by much",
			highFixed.AvgPower, highHopeful.AvgPower)
	}
	if highHybrid.AvgPower < math.Min(highFixed.AvgPower, highHopeful.AvgPower)-0.1 {
		t.Errorf("75%% null: hybrid power %v collapsed below both components", highHybrid.AvgPower)
	}
}

func TestExp1cSupportSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	ms, err := Exp1c(Exp1cConfig{NullProportion: 0.75, Replications: 80, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gamma-fixed", "psi-support", "epsilon-hybrid"} {
		points := FilterMeasurements(ms, name)
		if len(points) != len(SampleFractions) {
			t.Fatalf("%s: %d points", name, len(points))
		}
		// Power should grow with the sample size (Figure 5 c/f).
		if points[len(points)-1].AvgPower <= points[0].AvgPower {
			t.Errorf("%s: power should grow with sample size (%v -> %v)",
				name, points[0].AvgPower, points[len(points)-1].AvgPower)
		}
		for _, p := range points {
			if p.AvgFDR > PaperAlpha+0.04 {
				t.Errorf("%s at fraction %v: FDR %v", name, p.X, p.AvgFDR)
			}
		}
	}
	// Figure 5(b)(e): psi-support achieves average FDR no worse than
	// gamma-fixed overall (it invests less in low-support hypotheses).
	var supportFDR, fixedFDR float64
	for _, p := range FilterMeasurements(ms, "psi-support") {
		supportFDR += p.AvgFDR
	}
	for _, p := range FilterMeasurements(ms, "gamma-fixed") {
		fixedFDR += p.AvgFDR
	}
	if supportFDR > fixedFDR+0.03*float64(len(SampleFractions)) {
		t.Errorf("psi-support cumulative FDR %v should not exceed gamma-fixed %v by much", supportFDR, fixedFDR)
	}
}

func TestHoldoutExperimentMatchesSection41(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	m, err := HoldoutExperiment(500, 400, 31)
	if err != nil {
		t.Fatal(err)
	}
	if m.Theoretical.FullDataPower < 0.97 {
		t.Errorf("theoretical full power = %v, paper reports 0.99", m.Theoretical.FullDataPower)
	}
	if math.Abs(m.Theoretical.SplitHalfPower-0.87) > 0.04 {
		t.Errorf("theoretical half power = %v, paper reports 0.87", m.Theoretical.SplitHalfPower)
	}
	if math.Abs(m.Theoretical.HoldoutPower-0.76) > 0.06 {
		t.Errorf("theoretical holdout power = %v, paper reports 0.76", m.Theoretical.HoldoutPower)
	}
	// Empirical values should be near their theoretical counterparts.
	if math.Abs(m.FullDataPower-m.Theoretical.FullDataPower) > 0.05 {
		t.Errorf("empirical full power %v vs theory %v", m.FullDataPower, m.Theoretical.FullDataPower)
	}
	if math.Abs(m.HoldoutPower-m.Theoretical.HoldoutPower) > 0.08 {
		t.Errorf("empirical holdout power %v vs theory %v", m.HoldoutPower, m.Theoretical.HoldoutPower)
	}
	if m.HoldoutPower >= m.FullDataPower {
		t.Error("holdout confirmation must lose power relative to the full-data test")
	}
	if _, err := HoldoutExperiment(2, 10, 1); err == nil {
		t.Error("expected error for tiny sample")
	}
	if _, err := HoldoutExperiment(100, 0, 1); err == nil {
		t.Error("expected error for zero replications")
	}
}

func TestSubsetExperimentTheorem1(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res, err := SubsetExperiment(64, 0.75, 0.5, 400, 37)
	if err != nil {
		t.Fatal(err)
	}
	if res.FullFDR > PaperAlpha+0.02 {
		t.Errorf("full FDR %v exceeds alpha", res.FullFDR)
	}
	// Theorem 1: the subset's FDR stays controlled at the same level.
	if res.SubsetFDR > PaperAlpha+0.03 {
		t.Errorf("subset FDR %v exceeds alpha", res.SubsetFDR)
	}
	if _, err := SubsetExperiment(64, 0.75, 0, 10, 1); err == nil {
		t.Error("expected error for zero subset fraction")
	}
	if _, err := SubsetExperiment(64, 0.75, 0.5, 0, 1); err == nil {
		t.Error("expected error for zero replications")
	}
}

func TestWriteReport(t *testing.T) {
	source := func(rng *rand.Rand) (Stream, error) {
		return GenerateSynthetic(DefaultSyntheticConfig(8, 0.75), rng)
	}
	ms, err := RunPoint(source, StaticRunners(), PaperAlpha, 20, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, "Exp.1a test", "hypotheses", ms); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Exp.1a test", "avg discoveries", "avg FDR", "avg power", "PCER", "Bonferroni", "BHFDR"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	var empty bytes.Buffer
	if err := WriteReport(&empty, "empty", "x", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "no measurements") {
		t.Error("empty report should say so")
	}
}

func TestExp2CensusWorkflowsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	// A scaled-down Exp. 2 so the test completes quickly: fewer rows, fewer
	// hypotheses, fewer replications.
	cfg := Exp2Config{Rows: 4000, Hypotheses: 40, Replications: 4, Seed: 3}
	ms, err := Exp2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(SampleFractions)*len(IncrementalRunners()) {
		t.Fatalf("measurements = %d", len(ms))
	}
	for _, m := range ms {
		if m.AvgFDR < 0 || m.AvgFDR > 1 {
			t.Errorf("%s: FDR %v", m.Procedure, m.AvgFDR)
		}
		if m.AvgDiscoveries < 0 {
			t.Errorf("%s: discoveries %v", m.Procedure, m.AvgDiscoveries)
		}
	}
	// Power at the largest sample should exceed power at the smallest for the
	// conservative rules (Figure 6c).
	fixed := FilterMeasurements(ms, "gamma-fixed")
	if fixed[len(fixed)-1].AvgPower < fixed[0].AvgPower {
		t.Errorf("gamma-fixed power should grow with sample size: %v -> %v",
			fixed[0].AvgPower, fixed[len(fixed)-1].AvgPower)
	}

	// Randomized census: every discovery is false, FDR-as-reported equals the
	// share of replications with any discovery; mFDR should stay controlled.
	randCfg := cfg
	randCfg.Randomized = true
	randMs, err := Exp2(randCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range randMs {
		if m.MarginalFDR > PaperAlpha+0.1 {
			t.Errorf("%s on randomized census: mFDR %v", m.Procedure, m.MarginalFDR)
		}
	}
}
