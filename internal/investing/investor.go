package investing

import (
	"fmt"
	"math"
)

// Investor drives an α-investing procedure: it owns the wealth ledger,
// delegates the per-test level to a Policy, applies the wealth update of
// Equation 5 and records the full decision history. Decisions are final —
// once a hypothesis has been accepted or rejected the Investor never revisits
// it, which is the interactivity guarantee AWARE builds on (Section 3,
// requirement 2).
type Investor struct {
	cfg    Config
	policy Policy

	wealth    float64
	decisions []Decision
	rejected  int
}

// NewInvestor builds an investor for the given policy. The configuration is
// validated; the policy is Reset.
func NewInvestor(cfg Config, policy Policy) (*Investor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, fmt.Errorf("%w: nil policy", ErrInvalidParameter)
	}
	policy.Reset()
	return &Investor{cfg: cfg, policy: policy, wealth: cfg.InitialWealth()}, nil
}

// Config returns the investor's configuration.
func (inv *Investor) Config() Config { return inv.cfg }

// PolicyName returns the name of the underlying policy.
func (inv *Investor) PolicyName() string { return inv.policy.Name() }

// Wealth returns the currently available α-wealth W(j).
func (inv *Investor) Wealth() float64 { return inv.wealth }

// Exhausted reports whether the investor can no longer invest a positive
// level (wealth is zero, or so small that every allowed level underflows).
func (inv *Investor) Exhausted() bool { return maxInvestable(inv.wealth) <= 0 }

// TestCount returns the number of hypotheses processed so far.
func (inv *Investor) TestCount() int { return len(inv.decisions) }

// Rejections returns the number of discoveries so far (R(j)).
func (inv *Investor) Rejections() int { return inv.rejected }

// Decisions returns a copy of the full decision history in stream order.
func (inv *Investor) Decisions() []Decision {
	out := make([]Decision, len(inv.decisions))
	copy(out, inv.decisions)
	return out
}

// Test processes the next hypothesis in the stream: it asks the policy for a
// level, compares the p-value against it, applies the wealth update and
// returns the decision. The p-value must lie in [0, 1]. When the wealth is
// exhausted it returns ErrExhausted and the hypothesis is left undecided
// (callers typically surface "stop exploring" to the user, Section 5.8).
func (inv *Investor) Test(pValue float64, ctx TestContext) (Decision, error) {
	if pValue < 0 || pValue > 1 || math.IsNaN(pValue) {
		return Decision{}, fmt.Errorf("%w: got %v", ErrInvalidPValue, pValue)
	}
	if inv.Exhausted() {
		return Decision{}, ErrExhausted
	}
	if ctx.Index == 0 {
		ctx.Index = len(inv.decisions) + 1
	}
	proposed := inv.policy.NextAlpha(inv.wealth, ctx)
	alpha := clampAlpha(proposed, inv.wealth)
	if alpha <= 0 {
		return Decision{}, ErrExhausted
	}

	d := Decision{
		Index:        ctx.Index,
		PValue:       pValue,
		Alpha:        alpha,
		WealthBefore: inv.wealth,
		SupportSize:  ctx.SupportSize,
	}
	if pValue <= alpha {
		d.Rejected = true
		inv.wealth += inv.cfg.Omega
		inv.rejected++
	} else {
		inv.wealth -= alpha / (1 - alpha)
		if inv.wealth < 0 {
			// Guard against floating-point underflow of the non-negativity
			// invariant; the clamp above makes this a rounding-level event.
			inv.wealth = 0
		}
	}
	d.WealthAfter = inv.wealth
	inv.decisions = append(inv.decisions, d)
	inv.policy.Feedback(d)
	return d, nil
}

// Run consumes an entire stream of p-values, stopping early if the wealth is
// exhausted, and returns the rejection decisions for the hypotheses that were
// actually tested (the remainder of the stream is reported as not rejected).
// It is the batch entry point used by the simulation harness.
func (inv *Investor) Run(pvalues []float64, contexts []TestContext) ([]bool, error) {
	out := make([]bool, len(pvalues))
	for i, p := range pvalues {
		ctx := TestContext{Index: i + 1}
		if contexts != nil {
			if len(contexts) != len(pvalues) {
				return nil, fmt.Errorf("%w: contexts length %d != pvalues length %d", ErrInvalidParameter, len(contexts), len(pvalues))
			}
			ctx = contexts[i]
			ctx.Index = i + 1
		}
		d, err := inv.Test(p, ctx)
		if err != nil {
			if err == ErrExhausted {
				// Out of wealth: remaining hypotheses are untested, which the
				// paper treats as accepted nulls.
				return out, nil
			}
			return nil, err
		}
		out[i] = d.Rejected
	}
	return out, nil
}
