package investing

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestClassic performs a generalized step that reproduces the original
// Foster–Stine rule for the given level: cost α/(1-α), pay-out cost + ω.
func (g *GeneralizedInvestor) TestClassic(pValue, alpha float64) (GeneralizedDecision, error) {
	cost := alpha / (1 - alpha)
	return g.Test(pValue, alpha, cost, cost+g.cfg.Omega)
}

// TestFlatCost performs a generalized step parameterized directly by the cost
// φ rather than the level: it uses the largest level admissible with the full
// pay-out ψ = φ + ω, which is α_j = φ / (1 + φ). Spending a flat cost per test
// makes the wealth decrease exactly linearly in the number of accepted nulls,
// which is how the γ-fixed rule budgets its session.
func (g *GeneralizedInvestor) TestFlatCost(pValue, cost float64) (GeneralizedDecision, error) {
	if cost <= 0 || math.IsNaN(cost) {
		return GeneralizedDecision{}, fmt.Errorf("%w: cost must be positive, got %v", ErrInvalidParameter, cost)
	}
	payout := cost + g.cfg.Omega
	alpha := cost / (1 + cost)
	return g.Test(pValue, alpha, cost, payout)
}

func newGeneralized(t *testing.T) *GeneralizedInvestor {
	t.Helper()
	g, err := NewGeneralizedInvestor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGeneralizedInvestorConstruction(t *testing.T) {
	g := newGeneralized(t)
	if math.Abs(g.Wealth()-0.05*0.95) > 1e-15 {
		t.Errorf("initial wealth %v", g.Wealth())
	}
	if g.Config().Alpha != 0.05 {
		t.Errorf("alpha %v", g.Config().Alpha)
	}
	if _, err := NewGeneralizedInvestor(Config{Alpha: 2, Eta: 1, Omega: 0.05}); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestGeneralizedClassicMatchesInvestor(t *testing.T) {
	// Running the classic triple through the generalized machinery must give
	// exactly the same wealth trajectory as the plain Investor with a
	// gamma-fixed policy using the same levels.
	cfg := DefaultConfig()
	fixed, err := NewFixed(10, cfg.InitialWealth())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewInvestor(cfg, fixed)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGeneralizedInvestor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	level := cfg.InitialWealth() / (10 + cfg.InitialWealth())
	rng := rand.New(rand.NewSource(3))
	for j := 0; j < 10; j++ {
		p := rng.Float64()
		if j%4 == 0 {
			p /= 10000
		}
		pd, err1 := plain.TestSimple(p)
		gd, err2 := gen.TestClassic(p, level)
		if err1 != nil || err2 != nil {
			if errors.Is(err1, ErrExhausted) && errors.Is(err2, ErrExhausted) {
				break
			}
			t.Fatalf("step %d: %v vs %v", j, err1, err2)
		}
		if pd.Rejected != gd.Rejected {
			t.Fatalf("step %d: decisions differ", j)
		}
		if math.Abs(pd.WealthAfter-gd.WealthAfter) > 1e-12 {
			t.Fatalf("step %d: wealth %v vs %v", j, pd.WealthAfter, gd.WealthAfter)
		}
	}
}

func TestGeneralizedConstraintValidation(t *testing.T) {
	g := newGeneralized(t)
	if _, err := g.Test(1.5, 0.01, 0.01, 0.05); !errors.Is(err, ErrInvalidPValue) {
		t.Error("expected p-value error")
	}
	if _, err := g.Test(0.5, 0, 0.01, 0.05); !errors.Is(err, ErrInvalidAlpha) {
		t.Error("expected alpha error")
	}
	if _, err := g.Test(0.5, 0.01, 0, 0.05); !errors.Is(err, ErrInvalidParameter) {
		t.Error("expected cost error")
	}
	if _, err := g.Test(0.5, 0.01, 1, 0.05); !errors.Is(err, ErrExhausted) {
		t.Error("cost above wealth should report exhaustion")
	}
	if _, err := g.Test(0.5, 0.01, 0.01, -1); !errors.Is(err, ErrInvalidParameter) {
		t.Error("negative payout should fail")
	}
	// payout > cost + omega.
	if _, err := g.Test(0.5, 0.9, 0.01, 0.2); !errors.Is(err, ErrInvalidParameter) {
		t.Error("payout above cost+omega should fail")
	}
	// payout > cost / alpha.
	if _, err := g.Test(0.5, 0.9, 0.02, 0.05); !errors.Is(err, ErrInvalidParameter) {
		t.Error("payout above cost/alpha should fail")
	}
	// Failed validations must not consume wealth or record decisions.
	if g.TestCount() != 0 || g.Wealth() != g.Config().InitialWealth() {
		t.Error("failed tests must not change state")
	}
}

func TestGeneralizedFlatCostScheme(t *testing.T) {
	g := newGeneralized(t)
	cost := g.Wealth() / 10
	var losses int
	for {
		d, err := g.TestFlatCost(0.9, cost)
		if errors.Is(err, ErrExhausted) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if d.Rejected {
			t.Fatal("p=0.9 should never be rejected at these levels")
		}
		losses++
		if losses > 12 {
			t.Fatal("flat-cost scheme should exhaust after ~10 losses")
		}
	}
	if losses != 10 {
		t.Errorf("flat cost scheme performed %d tests, want 10", losses)
	}
	if _, err := g.TestFlatCost(0.5, 0); err == nil {
		t.Error("zero cost should fail")
	}
}

func TestGeneralizedMFDRControlSimulation(t *testing.T) {
	// Empirical sanity check: under the complete null, the flat-cost scheme
	// keeps E[V]/(E[R]+eta) at or below alpha.
	if testing.Short() {
		t.Skip("simulation test")
	}
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(8))
	const reps = 2000
	var totalV, totalR float64
	for r := 0; r < reps; r++ {
		g, err := NewGeneralizedInvestor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cost := cfg.InitialWealth() / 10
		for j := 0; j < 64; j++ {
			d, err := g.TestFlatCost(rng.Float64(), cost)
			if errors.Is(err, ErrExhausted) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if d.Rejected {
				totalV++
				totalR++
			}
		}
	}
	mfdr := (totalV / reps) / (totalR/reps + cfg.Eta)
	if mfdr > cfg.Alpha+0.01 {
		t.Errorf("flat-cost generalized investing mFDR %v exceeds alpha", mfdr)
	}
}

func TestGeneralizedDecisionsCopy(t *testing.T) {
	g := newGeneralized(t)
	if _, err := g.TestClassic(0.9, 0.01); err != nil {
		t.Fatal(err)
	}
	ds := g.Decisions()
	if len(ds) != 1 || g.TestCount() != 1 {
		t.Fatalf("decision count %d", len(ds))
	}
	ds[0].Rejected = true
	if g.Decisions()[0].Rejected {
		t.Error("Decisions must return a copy")
	}
	if g.Rejections() != 0 {
		t.Error("no rejections expected")
	}
}
