package investing

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestSimple is a convenience wrapper for streams without support-size
// information.
func (inv *Investor) TestSimple(pValue float64) (Decision, error) {
	return inv.Test(pValue, TestContext{})
}

// WealthHistory returns the wealth after each test, starting with W(0).
func (inv *Investor) WealthHistory() []float64 {
	out := make([]float64, 0, len(inv.decisions)+1)
	out = append(out, inv.cfg.InitialWealth())
	for _, d := range inv.decisions {
		out = append(out, d.WealthAfter)
	}
	return out
}

// paperPolicies builds fresh instances of the five named rules at the
// default level, in the paper's order.
func paperPolicies(t testing.TB) []Policy {
	t.Helper()
	out := make([]Policy, 0, len(PolicyNames))
	for _, name := range PolicyNames {
		p, err := NewNamedPolicy(name, DefaultAlpha)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func mustInvestor(t *testing.T, policy Policy) *Investor {
	t.Helper()
	inv, err := NewInvestor(DefaultConfig(), policy)
	if err != nil {
		t.Fatal(err)
	}
	return inv
}

func mustFarsighted(t *testing.T, beta float64) *Farsighted {
	t.Helper()
	p, err := NewFarsighted(beta, DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if _, err := NewConfig(0); !errors.Is(err, ErrInvalidAlpha) {
		t.Error("expected alpha error")
	}
	if _, err := NewConfig(1); !errors.Is(err, ErrInvalidAlpha) {
		t.Error("expected alpha error")
	}
	bad := Config{Alpha: 0.05, Eta: 0, Omega: 0.05}
	if err := bad.Validate(); !errors.Is(err, ErrInvalidEta) {
		t.Error("expected eta error")
	}
	bad = Config{Alpha: 0.05, Eta: 0.95, Omega: 0.2}
	if err := bad.Validate(); !errors.Is(err, ErrInvalidParameter) {
		t.Error("expected omega error")
	}
	cfg := DefaultConfig()
	if got := cfg.InitialWealth(); math.Abs(got-0.05*0.95) > 1e-15 {
		t.Errorf("InitialWealth = %v", got)
	}
}

func TestNewInvestorValidation(t *testing.T) {
	if _, err := NewInvestor(Config{Alpha: 2, Eta: 1, Omega: 0.05}, mustFarsighted(t, 0.25)); err == nil {
		t.Error("expected config error")
	}
	if _, err := NewInvestor(DefaultConfig(), nil); !errors.Is(err, ErrInvalidParameter) {
		t.Error("expected nil-policy error")
	}
}

func TestInvestorWealthUpdateEquation5(t *testing.T) {
	inv := mustInvestor(t, mustFarsighted(t, 0.25))
	w0 := inv.Wealth()

	// First test: accepted null (p large). Wealth drops by alpha/(1-alpha).
	d1, err := inv.TestSimple(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Rejected {
		t.Fatal("p=0.9 should not be rejected")
	}
	wantLoss := d1.Alpha / (1 - d1.Alpha)
	if math.Abs((w0-inv.Wealth())-wantLoss) > 1e-12 {
		t.Errorf("loss = %v, want %v", w0-inv.Wealth(), wantLoss)
	}

	// Second test: rejected null (p tiny). Wealth grows by omega.
	before := inv.Wealth()
	d2, err := inv.TestSimple(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Rejected {
		t.Fatal("p=1e-6 should be rejected")
	}
	if math.Abs(inv.Wealth()-(before+inv.Config().Omega)) > 1e-12 {
		t.Errorf("wealth after rejection = %v, want %v", inv.Wealth(), before+inv.Config().Omega)
	}
	if inv.Rejections() != 1 || inv.TestCount() != 2 {
		t.Errorf("counts: R=%d, m=%d", inv.Rejections(), inv.TestCount())
	}
}

func TestInvestorRejectsInvalidPValues(t *testing.T) {
	inv := mustInvestor(t, mustFarsighted(t, 0.25))
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := inv.TestSimple(p); !errors.Is(err, ErrInvalidPValue) {
			t.Errorf("p=%v: expected ErrInvalidPValue", p)
		}
	}
	if inv.TestCount() != 0 {
		t.Error("invalid p-values must not be recorded")
	}
}

func TestWealthNeverNegativeProperty(t *testing.T) {
	// Run random streams through every paper policy and check the core
	// invariant W(j) >= 0 plus alpha_j <= W/(1+W).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, pol := range paperPolicies(t) {
			inv, err := NewInvestor(DefaultConfig(), pol)
			if err != nil {
				return false
			}
			for j := 0; j < 200; j++ {
				p := rng.Float64()
				if rng.Float64() < 0.2 {
					p = rng.Float64() * 1e-4 // occasional true effect
				}
				d, err := inv.Test(p, TestContext{SupportSize: 1 + rng.Intn(1000), PopulationSize: 1000})
				if err == ErrExhausted {
					break
				}
				if err != nil {
					return false
				}
				if d.WealthAfter < 0 || math.IsNaN(d.WealthAfter) {
					return false
				}
				maxAllowed := d.WealthBefore/(1+d.WealthBefore) + 1e-12
				if d.Alpha > maxAllowed || d.Alpha <= 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDecisionsAreNeverRevisited(t *testing.T) {
	// The interactivity guarantee: once recorded, earlier decisions are not
	// altered by later tests.
	inv := mustInvestor(t, mustFarsighted(t, 0.25))
	rng := rand.New(rand.NewSource(5))
	var snapshots [][]Decision
	for j := 0; j < 50; j++ {
		p := rng.Float64()
		if j%7 == 0 {
			p = 1e-5
		}
		if _, err := inv.TestSimple(p); err != nil {
			t.Fatal(err)
		}
		snapshots = append(snapshots, inv.Decisions())
	}
	final := inv.Decisions()
	for i, snap := range snapshots {
		for j := range snap {
			if snap[j] != final[j] {
				t.Fatalf("decision %d changed after step %d", j, i)
			}
		}
	}
}

func TestDecisionsReturnsCopy(t *testing.T) {
	inv := mustInvestor(t, mustFarsighted(t, 0.25))
	if _, err := inv.TestSimple(0.5); err != nil {
		t.Fatal(err)
	}
	ds := inv.Decisions()
	ds[0].Rejected = true
	if inv.Decisions()[0].Rejected {
		t.Error("Decisions must return a defensive copy")
	}
}

func TestWealthHistory(t *testing.T) {
	inv := mustInvestor(t, mustFarsighted(t, 0.25))
	if _, err := inv.TestSimple(0.9); err != nil {
		t.Fatal(err)
	}
	if _, err := inv.TestSimple(0.0001); err != nil {
		t.Fatal(err)
	}
	hist := inv.WealthHistory()
	if len(hist) != 3 {
		t.Fatalf("history length %d", len(hist))
	}
	if hist[0] != inv.Config().InitialWealth() {
		t.Errorf("history[0] = %v", hist[0])
	}
	if hist[2] != inv.Wealth() {
		t.Errorf("history tail = %v, wealth = %v", hist[2], inv.Wealth())
	}
}

func TestGammaFixedExhaustsAfterGammaLosses(t *testing.T) {
	// With gamma = 10 every loss costs W(0)/10, so after 10 straight
	// acceptances the wealth is (numerically) zero and the procedure halts.
	cfg := DefaultConfig()
	fixed, err := NewFixed(10, cfg.InitialWealth())
	if err != nil {
		t.Fatal(err)
	}
	inv, err := NewInvestor(cfg, fixed)
	if err != nil {
		t.Fatal(err)
	}
	losses := 0
	for {
		_, err := inv.TestSimple(0.99)
		if err == ErrExhausted {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		losses++
		if losses > 11 {
			t.Fatalf("gamma-fixed should halt after ~10 losses, still running after %d", losses)
		}
	}
	if losses != 10 {
		t.Errorf("halted after %d losses, want 10", losses)
	}
	if inv.Wealth() > 1e-9 {
		t.Errorf("wealth should be ~0, got %v", inv.Wealth())
	}
}

func TestFarsightedIsThrifty(t *testing.T) {
	// beta-farsighted never halts: after k losses the wealth is beta^k * W0 > 0.
	cfg := DefaultConfig()
	inv := mustInvestor(t, mustFarsighted(t, 0.25))
	for j := 0; j < 500; j++ {
		if _, err := inv.TestSimple(0.99); err != nil {
			t.Fatalf("thrifty policy halted at step %d: %v", j, err)
		}
	}
	if inv.Wealth() <= 0 {
		t.Errorf("wealth = %v, should remain positive", inv.Wealth())
	}
	if inv.Wealth() >= cfg.InitialWealth() {
		t.Errorf("wealth should have decayed, got %v", inv.Wealth())
	}
}

func TestFarsightedPreservesBetaFraction(t *testing.T) {
	for _, beta := range []float64{0.1, 0.25, 0.5, 0.9} {
		inv := mustInvestor(t, mustFarsighted(t, beta))
		for j := 0; j < 30; j++ {
			before := inv.Wealth()
			d, err := inv.TestSimple(0.95)
			if err != nil {
				t.Fatal(err)
			}
			if d.Rejected {
				t.Fatal("p=0.95 should never be rejected")
			}
			if inv.Wealth() < beta*before-1e-12 {
				t.Fatalf("beta=%v: wealth %v dropped below beta * %v", beta, inv.Wealth(), before)
			}
		}
	}
}

func TestHopefulReinvestsAfterRejection(t *testing.T) {
	cfg := DefaultConfig()
	hopeful, err := NewHopeful(10, cfg.Alpha, cfg.InitialWealth())
	if err != nil {
		t.Fatal(err)
	}
	inv, err := NewInvestor(cfg, hopeful)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := inv.TestSimple(1e-9) // rejection: wealth grows
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Rejected {
		t.Fatal("expected rejection")
	}
	d2, err := inv.TestSimple(0.9)
	if err != nil {
		t.Fatal(err)
	}
	// After the rejection the per-test level is recomputed from the larger
	// wealth, so it must exceed the initial level W0/(10+W0).
	initialLevel := cfg.InitialWealth() / (10 + cfg.InitialWealth())
	if d2.Alpha <= initialLevel {
		t.Errorf("post-rejection level %v should exceed initial level %v", d2.Alpha, initialLevel)
	}
}

func TestHopefulVersusFixedOnSignalRichStream(t *testing.T) {
	// With many true effects of moderate strength, delta-hopeful should make
	// at least as many discoveries as gamma-fixed (Section 5.6 / Figure 4).
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(12))
	pvalues := make([]float64, 64)
	for i := range pvalues {
		if i%4 != 0 { // 75% true effects
			pvalues[i] = rng.Float64() * 0.01
		} else {
			pvalues[i] = rng.Float64()
		}
	}
	fixed, _ := NewFixed(10, cfg.InitialWealth())
	hopeful, _ := NewHopeful(10, cfg.Alpha, cfg.InitialWealth())
	invFixed, _ := NewInvestor(cfg, fixed)
	invHopeful, _ := NewInvestor(cfg, hopeful)
	if _, err := invFixed.Run(pvalues, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := invHopeful.Run(pvalues, nil); err != nil {
		t.Fatal(err)
	}
	if invHopeful.Rejections() < invFixed.Rejections() {
		t.Errorf("hopeful made %d discoveries, fixed made %d on a signal-rich stream",
			invHopeful.Rejections(), invFixed.Rejections())
	}
}

func TestHybridSwitchesRegimes(t *testing.T) {
	cfg := DefaultConfig()
	hybrid, err := NewHybrid(0.5, 10, 10, cfg.Alpha, cfg.InitialWealth(), 0)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := NewInvestor(cfg, hybrid)
	if err != nil {
		t.Fatal(err)
	}
	// With no history the policy must behave like gamma-fixed.
	gammaLevel := cfg.InitialWealth() / (10 + cfg.InitialWealth())
	d, err := inv.TestSimple(1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Alpha-gammaLevel) > 1e-12 {
		t.Errorf("first level %v, want gamma-fixed level %v", d.Alpha, gammaLevel)
	}
	// After a run of rejections the rejection rate exceeds epsilon and the
	// policy switches to the delta-hopeful level computed from W(k*).
	if _, err := inv.TestSimple(1e-9); err != nil {
		t.Fatal(err)
	}
	d3, err := inv.TestSimple(1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if d3.Alpha <= gammaLevel {
		t.Errorf("after rejections the hybrid level %v should exceed the gamma level %v", d3.Alpha, gammaLevel)
	}
}

func TestHybridSlidingWindow(t *testing.T) {
	cfg := DefaultConfig()
	hybrid, err := NewHybrid(0.5, 10, 10, cfg.Alpha, cfg.InitialWealth(), 4)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := NewInvestor(cfg, hybrid)
	if err != nil {
		t.Fatal(err)
	}
	// Two early rejections followed by many acceptances: with a window of 4
	// the rejections eventually age out and the policy returns to gamma mode.
	if _, err := inv.TestSimple(1e-9); err != nil {
		t.Fatal(err)
	}
	if _, err := inv.TestSimple(1e-9); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 6; j++ {
		if _, err := inv.TestSimple(0.9); err != nil {
			t.Fatal(err)
		}
	}
	if !hybrid.looksRandom() {
		t.Error("after the window slid past the rejections the data should look random again")
	}
	if len(hybrid.window) != 4 {
		t.Errorf("window length %d, want 4", len(hybrid.window))
	}
}

func TestSupportScalesWithSupportSize(t *testing.T) {
	cfg := DefaultConfig()
	support, err := NewSupport(0.5, 10, cfg.InitialWealth())
	if err != nil {
		t.Fatal(err)
	}
	inv, err := NewInvestor(cfg, support)
	if err != nil {
		t.Fatal(err)
	}
	full, err := inv.Test(0.5, TestContext{SupportSize: 1000, PopulationSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	quarter, err := inv.Test(0.5, TestContext{SupportSize: 250, PopulationSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if quarter.Alpha >= full.Alpha {
		t.Errorf("small support should receive a smaller level: %v vs %v", quarter.Alpha, full.Alpha)
	}
	if math.Abs(quarter.Alpha-full.Alpha*0.5) > 1e-12 {
		t.Errorf("psi=0.5, support fraction 0.25: level should halve, got %v vs %v", quarter.Alpha, full.Alpha)
	}
	// Missing metadata leaves the level unscaled.
	plain, err := inv.TestSimple(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.Alpha-full.Alpha) > 1e-12 {
		t.Errorf("missing support metadata should not scale the level")
	}
}

func TestRunStopsAtExhaustionAndReportsPrefix(t *testing.T) {
	cfg := DefaultConfig()
	fixed, _ := NewFixed(5, cfg.InitialWealth())
	inv, _ := NewInvestor(cfg, fixed)
	pvalues := make([]float64, 20)
	for i := range pvalues {
		pvalues[i] = 0.99
	}
	rej, err := inv.Run(pvalues, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rej) != len(pvalues) {
		t.Fatalf("rejections length %d", len(rej))
	}
	for i, r := range rej {
		if r {
			t.Errorf("unexpected rejection at %d", i)
		}
	}
	if inv.TestCount() >= len(pvalues) {
		t.Error("expected early exhaustion with gamma=5 and all nulls")
	}
}

func TestRunContextLengthMismatch(t *testing.T) {
	inv := mustInvestor(t, mustFarsighted(t, 0.25))
	if _, err := inv.Run([]float64{0.5, 0.5}, []TestContext{{}}); !errors.Is(err, ErrInvalidParameter) {
		t.Error("expected context length error")
	}
}

func TestPolicyConstructorValidation(t *testing.T) {
	if _, err := NewFarsighted(-0.1, 0.05); !errors.Is(err, ErrInvalidParameter) {
		t.Error("beta < 0 should fail")
	}
	if _, err := NewFarsighted(1, 0.05); !errors.Is(err, ErrInvalidParameter) {
		t.Error("beta = 1 should fail")
	}
	if _, err := NewFarsighted(0.25, 0); !errors.Is(err, ErrInvalidAlpha) {
		t.Error("alpha = 0 should fail")
	}
	if _, err := NewFixed(0, 0.05); !errors.Is(err, ErrInvalidParameter) {
		t.Error("gamma = 0 should fail")
	}
	if _, err := NewFixed(10, 0); !errors.Is(err, ErrInvalidParameter) {
		t.Error("zero wealth should fail")
	}
	if _, err := NewHopeful(0, 0.05, 0.05); !errors.Is(err, ErrInvalidParameter) {
		t.Error("delta = 0 should fail")
	}
	if _, err := NewHopeful(10, 1.5, 0.05); !errors.Is(err, ErrInvalidAlpha) {
		t.Error("alpha = 1.5 should fail")
	}
	if _, err := NewHybrid(0, 10, 10, 0.05, 0.05, 0); !errors.Is(err, ErrInvalidParameter) {
		t.Error("epsilon = 0 should fail")
	}
	if _, err := NewHybrid(0.5, 10, 10, 0.05, 0.05, -1); !errors.Is(err, ErrInvalidParameter) {
		t.Error("negative window should fail")
	}
	if _, err := NewSupport(0, 10, 0.05); !errors.Is(err, ErrInvalidParameter) {
		t.Error("psi = 0 should fail")
	}
	if _, err := BestFootForward(0.05); err != nil {
		t.Error("best-foot-forward with valid alpha should construct")
	}
}

func TestPaperPolicies(t *testing.T) {
	policies := paperPolicies(t)
	if len(policies) != 5 {
		t.Fatalf("expected 5 paper policies, got %d", len(policies))
	}
	names := map[string]bool{}
	for _, p := range policies {
		names[p.Name()] = true
	}
	for _, want := range []string{"beta-farsighted(0.25)", "gamma-fixed(10)", "delta-hopeful(10)", "epsilon-hybrid(0.5)", "psi-support(0.5)"} {
		if !names[want] {
			t.Errorf("missing policy %q in %v", want, names)
		}
	}
	if _, err := NewNamedPolicy(PolicyNames[0], 2); err == nil {
		t.Error("invalid alpha should fail")
	}
	if _, err := NewNamedPolicy("nope", DefaultAlpha); err == nil {
		t.Error("unknown name should fail")
	}
}
