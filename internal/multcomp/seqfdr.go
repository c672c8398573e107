package multcomp

import "math"

// SequentialFDR implements the ForwardStop rule of G'Sell et al. (2016),
// referred to as "Sequential FDR" / SeqFDR in the paper. Hypotheses arrive in
// a fixed order; the procedure transforms each p-value with
// Y_i = -log(1 - p_i), computes the running average, and rejects the first
// k-hat hypotheses where k-hat is the largest k whose running average is at
// most alpha.
//
// As discussed in Section 4.3 and 5 of the paper, the rule is incremental
// (it can be updated as hypotheses stream in) but not interactive: a later
// hypothesis can turn an earlier acceptance into a rejection, because k-hat
// can only grow forward through the sequence.
type SequentialFDR struct{}

// Name implements Procedure.
func (SequentialFDR) Name() string { return "SeqFDR" }

// Apply implements Procedure. The order of pvalues is the arrival order.
func (SequentialFDR) Apply(pvalues []float64, alpha float64) ([]bool, error) {
	if err := validate(pvalues, alpha); err != nil {
		return nil, err
	}
	out := make([]bool, len(pvalues))
	khat := forwardStopIndex(pvalues, alpha)
	for i := 0; i < khat; i++ {
		out[i] = true
	}
	return out, nil
}

// forwardStopIndex returns k-hat, the number of leading hypotheses rejected by
// the ForwardStop rule at level alpha.
func forwardStopIndex(pvalues []float64, alpha float64) int {
	sum := 0.0
	khat := 0
	for i, p := range pvalues {
		// Guard against p = 1, whose transform is +Inf: it simply makes all
		// subsequent running averages infinite, i.e. no further rejections.
		if p >= 1 {
			sum = math.Inf(1)
		} else {
			sum += -math.Log(1 - p)
		}
		avg := sum / float64(i+1)
		if avg <= alpha {
			khat = i + 1
		}
	}
	return khat
}
