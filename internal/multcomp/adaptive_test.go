package multcomp

import (
	"math"
	"math/rand"
	"testing"
)

func TestEstimatePi0(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// 70% uniform nulls, 30% near-zero alternatives.
	m := 2000
	p := make([]float64, m)
	for i := range p {
		if i%10 < 7 {
			p[i] = rng.Float64()
		} else {
			p[i] = rng.Float64() * 1e-3
		}
	}
	pi0, err := EstimatePi0(p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi0-0.7) > 0.06 {
		t.Errorf("pi0 estimate = %v, want ~0.7", pi0)
	}
	// Complete null: estimate near 1.
	for i := range p {
		p[i] = rng.Float64()
	}
	pi0, err = EstimatePi0(p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if pi0 < 0.9 {
		t.Errorf("complete-null pi0 estimate = %v", pi0)
	}
	if _, err := EstimatePi0(p, 0); err == nil {
		t.Error("lambda = 0 should error")
	}
	if _, err := EstimatePi0([]float64{1.2}, 0.5); err == nil {
		t.Error("invalid p-value should error")
	}
	// All p-values tiny: estimator must stay positive.
	pi0, err = EstimatePi0([]float64{1e-6, 1e-7, 1e-8}, 0.5)
	if err != nil || pi0 <= 0 {
		t.Errorf("pi0 = %v, %v", pi0, err)
	}
}

func TestAdaptiveBHMorePowerfulThanBH(t *testing.T) {
	// With many false nulls, adaptive BH should reject at least as much as BH
	// while keeping the realized FDR controlled.
	rng := rand.New(rand.NewSource(12))
	const reps = 500
	const m = 60
	var bhOutcomes, adaptiveOutcomes, twoStageOutcomes []Outcome
	for r := 0; r < reps; r++ {
		p := make([]float64, m)
		trueNull := make([]bool, m)
		for i := range p {
			if i%2 == 0 { // 50% false nulls with strong signal
				p[i] = rng.Float64() * 1e-3
			} else {
				trueNull[i] = true
				p[i] = rng.Float64()
			}
		}
		for _, run := range []struct {
			proc Procedure
			dst  *[]Outcome
		}{
			{BenjaminiHochberg{}, &bhOutcomes},
			{StoreyAdaptiveBH{}, &adaptiveOutcomes},
			{TwoStageAdaptiveBH{}, &twoStageOutcomes},
		} {
			rej, err := run.proc.Apply(p, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			o, err := Evaluate(rej, trueNull)
			if err != nil {
				t.Fatal(err)
			}
			*run.dst = append(*run.dst, o)
		}
	}
	bh := Summarize(bhOutcomes)
	adaptive := Summarize(adaptiveOutcomes)
	twoStage := Summarize(twoStageOutcomes)
	if adaptive.AvgPower < bh.AvgPower-1e-9 {
		t.Errorf("adaptive BH power %v below BH %v", adaptive.AvgPower, bh.AvgPower)
	}
	if twoStage.AvgPower < bh.AvgPower-1e-9 {
		t.Errorf("two-stage BH power %v below BH %v", twoStage.AvgPower, bh.AvgPower)
	}
	for name, agg := range map[string]Aggregate{"BH": bh, "adaptive": adaptive, "two-stage": twoStage} {
		if agg.AvgFDR > 0.06 {
			t.Errorf("%s FDR %v exceeds alpha", name, agg.AvgFDR)
		}
	}
}

func TestAdaptiveProceduresValidationAndNames(t *testing.T) {
	for _, proc := range []Procedure{StoreyAdaptiveBH{}, TwoStageAdaptiveBH{}} {
		if proc.Name() == "" {
			t.Error("empty name")
		}
		if _, err := proc.Apply([]float64{0.5}, 0); err == nil {
			t.Errorf("%s: invalid alpha should error", proc.Name())
		}
		rej, err := proc.Apply(nil, 0.05)
		if err != nil || len(rej) != 0 {
			t.Errorf("%s: empty input should succeed", proc.Name())
		}
	}
	// Complete-null behaviour: no first-stage rejections means none overall.
	p := []float64{0.5, 0.6, 0.7, 0.9}
	rej, err := TwoStageAdaptiveBH{}.Apply(p, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if countTrue(rej) != 0 {
		t.Error("two-stage BH should not reject clear nulls")
	}
	// All-significant behaviour.
	tiny := []float64{1e-9, 1e-8, 1e-7}
	rej, err = TwoStageAdaptiveBH{}.Apply(tiny, 0.05)
	if err != nil || countTrue(rej) != 3 {
		t.Errorf("two-stage BH on all-tiny p-values: %v, %v", rej, err)
	}
	rej, err = StoreyAdaptiveBH{Lambda: 0.8}.Apply(tiny, 0.05)
	if err != nil || countTrue(rej) != 3 {
		t.Errorf("adaptive BH with custom lambda: %v, %v", rej, err)
	}
}
