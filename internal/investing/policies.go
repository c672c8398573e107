package investing

import (
	"fmt"
	"math"
)

// Farsighted is the β-farsighted rule (Investing Rule 1): regardless of the
// outcome of a test, at least a fraction β of the current wealth is preserved
// for the future, which makes the policy "thrifty" — it can never fully
// exhaust its wealth. Small β spends aggressively on early hypotheses; large β
// preserves budget for long sessions.
//
// It invests α_j = min(α, W(1-β) / (1 + W(1-β))), which guarantees
// W(j) >= β·W(j-1) after a loss.
type Farsighted struct {
	// Beta is the preserved wealth fraction, in [0, 1). The paper's default is
	// 0.25.
	Beta float64
	// Alpha caps the per-test level at the overall control level, as in the
	// pseudo-code of Investing Rule 1.
	Alpha float64
}

// NewFarsighted returns a β-farsighted policy with cap alpha.
func NewFarsighted(beta, alpha float64) (*Farsighted, error) {
	if beta < 0 || beta >= 1 || math.IsNaN(beta) {
		return nil, fmt.Errorf("%w: beta must be in [0, 1), got %v", ErrInvalidParameter, beta)
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("%w: got %v", ErrInvalidAlpha, alpha)
	}
	return &Farsighted{Beta: beta, Alpha: alpha}, nil
}

// Name implements Policy.
func (p *Farsighted) Name() string { return fmt.Sprintf("beta-farsighted(%.2g)", p.Beta) }

// NextAlpha implements Policy.
func (p *Farsighted) NextAlpha(wealth float64, _ TestContext) float64 {
	if wealth <= 0 {
		return 0
	}
	spend := wealth * (1 - p.Beta)
	alpha := spend / (1 + spend)
	if alpha > p.Alpha {
		alpha = p.Alpha
	}
	return alpha
}

// Feedback implements Policy (stateless).
func (p *Farsighted) Feedback(Decision) {}

// Reset implements Policy (stateless).
func (p *Farsighted) Reset() {}

// BestFootForward is the Foster–Stine "best-foot-forward" policy, which the
// paper notes is the β = 0 special case of β-farsighted: it stakes as much as
// allowed on each early hypothesis, betting that the first tests are true
// discoveries whose returns then fund the rest of the session.
func BestFootForward(alpha float64) (*Farsighted, error) {
	p, err := NewFarsighted(0, alpha)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Fixed is the γ-fixed rule (Investing Rule 2): every hypothesis receives the
// same level α* = W(0)/(γ + W(0)), so a loss always costs exactly W(0)/γ.
// The procedure halts once the remaining wealth cannot cover another loss.
// Larger γ spreads the initial wealth over more tests and is therefore more
// conservative.
type Fixed struct {
	// Gamma is the spreading factor; the paper's default is 10, with 50–100
	// suggested for very random data.
	Gamma float64
	// InitialWealth is W(0); it determines the constant per-test level.
	InitialWealth float64

	alphaStar float64
}

// NewFixed returns a γ-fixed policy for a procedure starting with
// initialWealth.
func NewFixed(gamma, initialWealth float64) (*Fixed, error) {
	if gamma <= 0 || math.IsNaN(gamma) {
		return nil, fmt.Errorf("%w: gamma must be positive, got %v", ErrInvalidParameter, gamma)
	}
	if initialWealth <= 0 {
		return nil, fmt.Errorf("%w: initial wealth must be positive, got %v", ErrInvalidParameter, initialWealth)
	}
	p := &Fixed{Gamma: gamma, InitialWealth: initialWealth}
	p.Reset()
	return p, nil
}

// Name implements Policy.
func (p *Fixed) Name() string { return fmt.Sprintf("gamma-fixed(%g)", p.Gamma) }

// NextAlpha implements Policy. It returns 0 (halt) when the wealth cannot
// absorb another loss of α*/(1-α*) = W(0)/γ, mirroring the while-condition of
// Investing Rule 2.
func (p *Fixed) NextAlpha(wealth float64, _ TestContext) float64 {
	if wealth-p.alphaStar/(1-p.alphaStar) < -affordEpsilon {
		return 0
	}
	return p.alphaStar
}

// Feedback implements Policy (stateless).
func (p *Fixed) Feedback(Decision) {}

// Reset implements Policy.
func (p *Fixed) Reset() {
	p.alphaStar = p.InitialWealth / (p.Gamma + p.InitialWealth)
}

// Hopeful is the δ-hopeful rule (Investing Rule 3): like γ-fixed it spreads
// wealth over a horizon of δ hypotheses, but after every rejection it
// re-computes the per-test level from the *current* wealth, "hoping" that one
// of the next δ hypotheses will be rejected. It is more optimistic than
// γ-fixed and outperforms it when the data contains many true effects.
type Hopeful struct {
	// Delta is the horizon; the paper's default is 10.
	Delta float64
	// Alpha caps the per-test level after a re-investment.
	Alpha float64
	// InitialWealth is W(0).
	InitialWealth float64

	alphaStar float64
}

// NewHopeful returns a δ-hopeful policy.
func NewHopeful(delta, alpha, initialWealth float64) (*Hopeful, error) {
	if delta <= 0 || math.IsNaN(delta) {
		return nil, fmt.Errorf("%w: delta must be positive, got %v", ErrInvalidParameter, delta)
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("%w: got %v", ErrInvalidAlpha, alpha)
	}
	if initialWealth <= 0 {
		return nil, fmt.Errorf("%w: initial wealth must be positive, got %v", ErrInvalidParameter, initialWealth)
	}
	p := &Hopeful{Delta: delta, Alpha: alpha, InitialWealth: initialWealth}
	p.Reset()
	return p, nil
}

// Name implements Policy.
func (p *Hopeful) Name() string { return fmt.Sprintf("delta-hopeful(%g)", p.Delta) }

// NextAlpha implements Policy. As in Investing Rule 3, the procedure halts
// when it cannot absorb another loss at the current level.
func (p *Hopeful) NextAlpha(wealth float64, _ TestContext) float64 {
	if wealth-p.alphaStar/(1-p.alphaStar) < -affordEpsilon {
		return 0
	}
	return p.alphaStar
}

// Feedback implements Policy: after a rejection the level is re-derived from
// the post-rejection wealth.
func (p *Hopeful) Feedback(d Decision) {
	if !d.Rejected {
		return
	}
	next := d.WealthAfter / (p.Delta + d.WealthAfter)
	if next > p.Alpha {
		next = p.Alpha
	}
	p.alphaStar = next
}

// Reset implements Policy.
func (p *Hopeful) Reset() {
	p.alphaStar = p.InitialWealth / (p.Delta + p.InitialWealth)
}

// Hybrid is the ε-hybrid rule (Investing Rule 4): it estimates the randomness
// of the data from the rejection rate over a sliding window of the last
// WindowSize decisions and switches between the conservative γ-fixed level
// (when rejections are rare, i.e. the data looks random) and the optimistic
// δ-hopeful level (when rejections are frequent).
type Hybrid struct {
	// Epsilon is the randomness threshold ε in (0, 1); the paper uses 0.5.
	Epsilon float64
	// Gamma and Delta parameterize the two underlying levels.
	Gamma float64
	Delta float64
	// Alpha caps the optimistic level.
	Alpha float64
	// InitialWealth is W(0).
	InitialWealth float64
	// WindowSize bounds the sliding window H_d; 0 means unlimited, which is
	// the configuration used in the paper's experiments.
	WindowSize int

	window        []bool
	rejectedInWin int
	wealthAtLast  float64 // W(k*): wealth right after the most recent rejection
}

// NewHybrid returns an ε-hybrid policy. windowSize = 0 keeps an unbounded
// history, as in the paper's evaluation.
func NewHybrid(epsilon, gamma, delta, alpha, initialWealth float64, windowSize int) (*Hybrid, error) {
	if epsilon <= 0 || epsilon >= 1 || math.IsNaN(epsilon) {
		return nil, fmt.Errorf("%w: epsilon must be in (0, 1), got %v", ErrInvalidParameter, epsilon)
	}
	if gamma <= 0 || delta <= 0 {
		return nil, fmt.Errorf("%w: gamma and delta must be positive", ErrInvalidParameter)
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("%w: got %v", ErrInvalidAlpha, alpha)
	}
	if initialWealth <= 0 {
		return nil, fmt.Errorf("%w: initial wealth must be positive", ErrInvalidParameter)
	}
	if windowSize < 0 {
		return nil, fmt.Errorf("%w: window size must be >= 0", ErrInvalidParameter)
	}
	p := &Hybrid{
		Epsilon:       epsilon,
		Gamma:         gamma,
		Delta:         delta,
		Alpha:         alpha,
		InitialWealth: initialWealth,
		WindowSize:    windowSize,
	}
	p.Reset()
	return p, nil
}

// Name implements Policy.
func (p *Hybrid) Name() string { return fmt.Sprintf("epsilon-hybrid(%.2g)", p.Epsilon) }

// NextAlpha implements Policy.
func (p *Hybrid) NextAlpha(wealth float64, _ TestContext) float64 {
	var proposed float64
	if p.looksRandom() {
		proposed = p.InitialWealth / (p.Gamma + p.InitialWealth)
	} else {
		proposed = p.wealthAtLast / (p.Delta + p.wealthAtLast)
		if proposed > p.Alpha {
			proposed = p.Alpha
		}
	}
	// Investing Rule 4 only performs the test when the wealth can absorb the
	// loss; otherwise the hypothesis is skipped, which we surface as halt.
	if wealth-proposed/(1-proposed) < -affordEpsilon {
		return 0
	}
	return proposed
}

// looksRandom reports whether the recent rejection rate is at or below ε.
func (p *Hybrid) looksRandom() bool {
	if len(p.window) == 0 {
		return true
	}
	return float64(p.rejectedInWin) <= p.Epsilon*float64(len(p.window))
}

// Feedback implements Policy.
func (p *Hybrid) Feedback(d Decision) {
	p.window = append(p.window, d.Rejected)
	if d.Rejected {
		p.rejectedInWin++
		p.wealthAtLast = d.WealthAfter
	}
	if p.WindowSize > 0 && len(p.window) > p.WindowSize {
		old := p.window[0]
		p.window = p.window[1:]
		if old {
			p.rejectedInWin--
		}
	}
}

// Reset implements Policy.
func (p *Hybrid) Reset() {
	p.window = nil
	p.rejectedInWin = 0
	p.wealthAtLast = p.InitialWealth
}

// Support is the ψ-support rule (Investing Rule 5): it scales a base γ-fixed
// level by (support/population)^Psi so that hypotheses computed over small
// sub-populations — where spuriously small p-values are most likely — receive
// proportionally less trust.
type Support struct {
	// Psi is the scaling exponent; the paper suggests 1, 2/3, 1/2, 1/3 and uses
	// 1/2 in the pseudo-code.
	Psi float64
	// Gamma parameterizes the base level, as in γ-fixed.
	Gamma float64
	// InitialWealth is W(0).
	InitialWealth float64

	alphaStar float64
}

// NewSupport returns a ψ-support policy layered on a γ-fixed base.
func NewSupport(psi, gamma, initialWealth float64) (*Support, error) {
	if psi <= 0 || math.IsNaN(psi) {
		return nil, fmt.Errorf("%w: psi must be positive, got %v", ErrInvalidParameter, psi)
	}
	if gamma <= 0 {
		return nil, fmt.Errorf("%w: gamma must be positive, got %v", ErrInvalidParameter, gamma)
	}
	if initialWealth <= 0 {
		return nil, fmt.Errorf("%w: initial wealth must be positive", ErrInvalidParameter)
	}
	p := &Support{Psi: psi, Gamma: gamma, InitialWealth: initialWealth}
	p.Reset()
	return p, nil
}

// Name implements Policy.
func (p *Support) Name() string { return fmt.Sprintf("psi-support(%.2g)", p.Psi) }

// NextAlpha implements Policy. A missing support or population size leaves the
// base level unscaled.
func (p *Support) NextAlpha(wealth float64, ctx TestContext) float64 {
	alpha := p.alphaStar
	if ctx.SupportSize > 0 && ctx.PopulationSize > 0 && ctx.SupportSize <= ctx.PopulationSize {
		frac := float64(ctx.SupportSize) / float64(ctx.PopulationSize)
		alpha *= math.Pow(frac, p.Psi)
	}
	if wealth-alpha/(1-alpha) < -affordEpsilon {
		return 0
	}
	return alpha
}

// Feedback implements Policy (stateless).
func (p *Support) Feedback(Decision) {}

// Reset implements Policy.
func (p *Support) Reset() {
	p.alphaStar = p.InitialWealth / (p.Gamma + p.InitialWealth)
}

// PolicyNames lists the names accepted by NewNamedPolicy, in the paper's
// order.
var PolicyNames = []string{
	"beta-farsighted", "gamma-fixed", "delta-hopeful", "epsilon-hybrid", "psi-support",
}

// NewNamedPolicy constructs the investing rule with the given name using the
// paper's parameters (Section 7.2: β = 0.25, γ = 10, δ = 10, ε = 0.5 with an
// unlimited window, and ψ = 1/2 on top of γ = 10) at control level alpha. It
// is the single source of those parameters, and backs every front-end that
// selects a rule by name (the aware CLI's -policy flag, awared's "policy"
// session field, the simulation harness).
func NewNamedPolicy(name string, alpha float64) (Policy, error) {
	cfg, err := NewConfig(alpha)
	if err != nil {
		return nil, err
	}
	switch name {
	case "beta-farsighted":
		return NewFarsighted(0.25, cfg.Alpha)
	case "gamma-fixed":
		return NewFixed(10, cfg.InitialWealth())
	case "delta-hopeful":
		return NewHopeful(10, cfg.Alpha, cfg.InitialWealth())
	case "epsilon-hybrid":
		return NewHybrid(0.5, 10, 10, cfg.Alpha, cfg.InitialWealth(), 0)
	case "psi-support":
		return NewSupport(0.5, 10, cfg.InitialWealth())
	default:
		return nil, fmt.Errorf("%w: unknown policy %q (want one of %v)", ErrInvalidParameter, name, PolicyNames)
	}
}

// affordEpsilon absorbs floating-point rounding in the affordability checks of
// the non-thrifty rules, so that (for example) γ-fixed performs exactly γ
// tests under a pure-null stream instead of γ-1.
const affordEpsilon = 1e-12
