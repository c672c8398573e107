package investing

import (
	"fmt"
	"math"
)

// GeneralizedInvestor implements the generalized α-investing framework of
// Aharoni & Rosset (2014), which the paper cites as reference [1]: instead of
// the fixed pay-out ω and penalty α_j/(1-α_j) of the original Foster–Stine
// scheme, each test j may choose any triple (α_j, pay-out ψ_j, cost φ_j)
// satisfying
//
//	φ_j  <= W(j-1)                       (cannot bet more than the wealth)
//	ψ_j  <= φ_j + ω                      (bounded pay-out, ω = α)
//	ψ_j  <= φ_j / α_j + ω - 1            (pay-out consistent with the level)
//
// with the update W(j) = W(j-1) - φ_j + ψ_j·1{p_j <= α_j}. Any such scheme
// controls mFDR_η at level α when W(0) = α·η. The original α-investing rule is
// the special case φ_j = α_j/(1-α_j), ψ_j = φ_j + ω, for which the two pay-out
// bounds coincide.
//
// GeneralizedInvestor exposes the generalized bookkeeping so alternative
// spending schemes (for example "flat cost, capped reward") can be explored;
// the paper's five rules all go through the plain Investor.
type GeneralizedInvestor struct {
	cfg    Config
	wealth float64

	decisions []GeneralizedDecision
	rejected  int
}

// GeneralizedDecision records one step of a generalized α-investing procedure.
type GeneralizedDecision struct {
	// Index is the 1-based position in the stream.
	Index int
	// PValue is the observed p-value.
	PValue float64
	// Alpha, Cost and Payout are the (α_j, φ_j, ψ_j) triple used for the test.
	Alpha  float64
	Cost   float64
	Payout float64
	// Rejected reports whether the null hypothesis was rejected.
	Rejected bool
	// WealthBefore and WealthAfter bracket the update.
	WealthBefore float64
	WealthAfter  float64
}

// NewGeneralizedInvestor builds a generalized investor with wealth W(0) = α·η.
func NewGeneralizedInvestor(cfg Config) (*GeneralizedInvestor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &GeneralizedInvestor{cfg: cfg, wealth: cfg.InitialWealth()}, nil
}

// Config returns the control target.
func (g *GeneralizedInvestor) Config() Config { return g.cfg }

// Wealth returns the current α-wealth.
func (g *GeneralizedInvestor) Wealth() float64 { return g.wealth }

// TestCount returns the number of hypotheses tested so far.
func (g *GeneralizedInvestor) TestCount() int { return len(g.decisions) }

// Rejections returns the number of discoveries so far.
func (g *GeneralizedInvestor) Rejections() int { return g.rejected }

// Decisions returns a copy of the decision history.
func (g *GeneralizedInvestor) Decisions() []GeneralizedDecision {
	out := make([]GeneralizedDecision, len(g.decisions))
	copy(out, g.decisions)
	return out
}

// Test performs one generalized investing step with an explicit (α, φ, ψ)
// triple. It validates the Aharoni–Rosset constraints and returns an error
// (without consuming wealth) when they are violated.
func (g *GeneralizedInvestor) Test(pValue, alpha, cost, payout float64) (GeneralizedDecision, error) {
	if pValue < 0 || pValue > 1 || math.IsNaN(pValue) {
		return GeneralizedDecision{}, fmt.Errorf("%w: got %v", ErrInvalidPValue, pValue)
	}
	if alpha <= 0 || alpha >= 1 || math.IsNaN(alpha) {
		return GeneralizedDecision{}, fmt.Errorf("%w: alpha_j = %v", ErrInvalidAlpha, alpha)
	}
	if cost <= 0 || math.IsNaN(cost) {
		return GeneralizedDecision{}, fmt.Errorf("%w: cost must be positive, got %v", ErrInvalidParameter, cost)
	}
	if cost > g.wealth+affordEpsilon {
		return GeneralizedDecision{}, ErrExhausted
	}
	if payout < 0 || math.IsNaN(payout) {
		return GeneralizedDecision{}, fmt.Errorf("%w: payout must be non-negative, got %v", ErrInvalidParameter, payout)
	}
	if payout > cost+g.cfg.Omega+affordEpsilon {
		return GeneralizedDecision{}, fmt.Errorf("%w: payout %v exceeds cost + omega = %v", ErrInvalidParameter, payout, cost+g.cfg.Omega)
	}
	if limit := cost/alpha + g.cfg.Omega - 1; payout > limit+affordEpsilon {
		return GeneralizedDecision{}, fmt.Errorf("%w: payout %v exceeds cost/alpha + omega - 1 = %v", ErrInvalidParameter, payout, limit)
	}

	d := GeneralizedDecision{
		Index:        len(g.decisions) + 1,
		PValue:       pValue,
		Alpha:        alpha,
		Cost:         cost,
		Payout:       payout,
		WealthBefore: g.wealth,
	}
	g.wealth -= cost
	if pValue <= alpha {
		d.Rejected = true
		g.wealth += payout
		g.rejected++
	}
	if g.wealth < 0 {
		g.wealth = 0
	}
	d.WealthAfter = g.wealth
	g.decisions = append(g.decisions, d)
	return d, nil
}
