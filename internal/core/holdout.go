package core

import (
	"fmt"
	"math/rand"

	"aware/internal/dataset"
	"aware/internal/obs"
	"aware/internal/stats"
)

// HoldoutResult reports the outcome of re-validating a comparison on a
// hold-out split, the procedure analysed (and criticised) in Section 4.1: a
// finding counts as confirmed only when both the exploration and the
// validation half reject at level alpha, which lowers the effective
// significance level to roughly alpha² but also multiplies the miss rates.
type HoldoutResult struct {
	// Exploration and Validation are the two independent test results.
	Exploration stats.TestResult
	Validation  stats.TestResult
	// Confirmed is true when both halves reject at Alpha.
	Confirmed bool
	// Alpha is the per-half significance level that was used.
	Alpha float64
}

// HoldoutValidator splits a dataset into an exploration and a validation half
// and re-tests findings on both, mirroring the paper's Section 4.1 analysis.
// CompareMeans re-validates a single mean comparison; ReplayLog generalizes
// the procedure to whole exploration logs by replaying a recorded []Step on
// each half and comparing the resulting hypothesis streams. It exists so the
// hold-out experiment and bench can quantify the power loss relative to
// testing on the full data.
type HoldoutValidator struct {
	exploration *dataset.Table
	validation  *dataset.Table
	// Per-half filter-bitmap caches: a replayed log applies the same filter
	// chains over and over (and CompareMeans both a filter and its
	// complement), so each half compiles every distinct predicate once.
	explorationSel *dataset.SelectionCache
	validationSel  *dataset.SelectionCache
	alpha          float64
}

// NewHoldoutValidator splits data into an exploration fraction and a
// validation remainder using rng.
func NewHoldoutValidator(data *dataset.Table, explorationFraction, alpha float64, rng *rand.Rand) (*HoldoutValidator, error) {
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("core: holdout alpha must be in (0, 1), got %v", alpha)
	}
	explore, validate, err := data.Split(rng, explorationFraction)
	if err != nil {
		return nil, err
	}
	return &HoldoutValidator{
		exploration:    explore,
		validation:     validate,
		explorationSel: dataset.NewSelectionCache(explore),
		validationSel:  dataset.NewSelectionCache(validate),
		alpha:          alpha,
	}, nil
}

// Exploration returns the exploration half.
func (h *HoldoutValidator) Exploration() *dataset.Table { return h.exploration }

// Validation returns the hold-out half.
func (h *HoldoutValidator) Validation() *dataset.Table { return h.validation }

// CompareMeans tests whether the mean of numericAttr differs between the
// filtered sub-population and its complement, independently on the
// exploration and validation halves, and reports whether the finding is
// confirmed by both.
func (h *HoldoutValidator) CompareMeans(numericAttr string, filter dataset.Predicate, alt stats.Alternative) (HoldoutResult, error) {
	return h.CompareMeansSpan(numericAttr, filter, alt, nil)
}

// CompareMeansSpan is CompareMeans with one step-depth span per holdout half
// recorded under parent (nil parent: identical to CompareMeans), so a traced
// validation request attributes its time to the exploration and validation
// replays separately, down to their kernels.
func (h *HoldoutValidator) CompareMeansSpan(numericAttr string, filter dataset.Predicate, alt stats.Alternative, parent *obs.Span) (HoldoutResult, error) {
	run := func(sel *dataset.SelectionCache, half string) (stats.TestResult, error) {
		span := parent.Child(obs.KindStep, "holdout.compare_means")
		defer span.End()
		span.Set("half", half)
		span.Set("rows", sel.Table().NumRows())
		in, err := sel.ViewSpan(filter, span)
		if err != nil {
			return stats.TestResult{}, err
		}
		defer in.Release()
		// The complement is a bitmap flip of the cached filter selection; no
		// second scan, no materialized sub-table; this call holds its only reference.
		out, err := dataset.NewView(sel.Table(), in.Selection().Not())
		if err != nil {
			return stats.TestResult{}, err
		}
		defer out.Release()
		x, err := in.Moments(numericAttr, span)
		if err != nil {
			return stats.TestResult{}, err
		}
		y, err := out.Moments(numericAttr, span)
		if err != nil {
			return stats.TestResult{}, err
		}
		return stats.WelchFromMoments(x, y, alt)
	}
	explorationRes, err := run(h.explorationSel, "exploration")
	if err != nil {
		return HoldoutResult{}, fmt.Errorf("core: holdout exploration test: %w", err)
	}
	validationRes, err := run(h.validationSel, "validation")
	if err != nil {
		return HoldoutResult{}, fmt.Errorf("core: holdout validation test: %w", err)
	}
	return HoldoutResult{
		Exploration: explorationRes,
		Validation:  validationRes,
		Confirmed:   explorationRes.PValue <= h.alpha && validationRes.PValue <= h.alpha,
		Alpha:       h.alpha,
	}, nil
}

// HypothesisValidation is the hold-out verdict on one hypothesis of a
// replayed exploration log.
type HypothesisValidation struct {
	// Seq is the journal position of the step that created the hypothesis.
	Seq int
	// Kind is the step's wire name (e.g. "compare_means").
	Kind string
	// HypothesisID is the hypothesis's ID, identical in both replayed
	// sessions because replay is structurally deterministic.
	HypothesisID int
	// Null echoes the hypothesis's null description from the exploration
	// replay.
	Null string
	// Status is the hypothesis's final lifecycle status on the exploration
	// half (superseded and deleted hypotheses are reported but typically
	// filtered out by callers).
	Status HypothesisStatus
	// Exploration and Validation are the two independent test results.
	Exploration stats.TestResult
	Validation  stats.TestResult
	// Validated reports whether the validation replay reached this
	// hypothesis; it is false for hypotheses past the point where the
	// validation half's α-wealth ran out.
	Validated bool
	// Confirmed is true when the hypothesis was validated and both halves
	// reject at the validator's per-half alpha.
	Confirmed bool
}

// ReplayValidation is the outcome of re-validating a whole exploration log on
// a hold-out split.
type ReplayValidation struct {
	// Alpha is the per-half significance level that was used.
	Alpha float64
	// Hypotheses holds one verdict per hypothesis the log produced, in
	// creation order (every step kind that tests — not just mean
	// comparisons).
	Hypotheses []HypothesisValidation
	// Confirmed counts the active hypotheses confirmed by both halves.
	Confirmed int
	// ActiveTotal counts the active hypotheses of the exploration replay.
	ActiveTotal int
	// ExplorationApplied and ValidationApplied count the steps each half
	// replayed before stopping. A recorded log can stop early on a half-size
	// split — a filter that matched a handful of rows on the full data may
	// select nothing here, and α-wealth runs out sooner — so a shortfall
	// against len(steps) means "the verdicts cover a prefix", not an error.
	ExplorationApplied int
	ValidationApplied  int
}

// ReplayLog replays a recorded exploration log independently on the
// exploration and validation halves and reports, for every hypothesis the log
// produces, whether the validation half confirms it: both halves must reject
// at the validator's per-half alpha (the Section 4.1 procedure, generalized
// from single mean comparisons to arbitrary step sequences).
//
// Each half replays the longest step prefix it can: the first step that fails
// on a half (degenerate sub-population, exhausted α-wealth) stops that half's
// replay rather than failing the call — skipping individual steps would
// desynchronize the visualization and hypothesis IDs later steps refer to.
// The validation half replays at most the exploration half's prefix, which
// keeps the two hypothesis streams index-aligned; hypotheses past the
// validation prefix are reported with Validated == false.
//
// The two replays run sequentially and reset opts.Policy when they start, so
// opts must not carry the Policy instance of a session that is still live —
// pass a fresh policy, or leave it nil for the paper's default.
func (h *HoldoutValidator) ReplayLog(opts Options, steps []Step) (ReplayValidation, error) {
	return h.ReplayLogSpan(opts, steps, nil)
}

// ReplayLogSpan is ReplayLog with one step-depth span per replayed half
// recorded under parent (nil parent: identical to ReplayLog). Each half's
// span nests the step spans of its replay, which in turn nest their kernels,
// so a traced holdout request explains exactly where a long replay spent its
// time and on which half.
func (h *HoldoutValidator) ReplayLogSpan(opts Options, steps []Step, parent *obs.Span) (ReplayValidation, error) {
	replayPrefix := func(data *dataset.Table, sel *dataset.SelectionCache, limit int, half string) (*Session, int, error) {
		span := parent.Child(obs.KindStep, "holdout.replay")
		defer span.End()
		span.Set("half", half)
		span.Set("rows", data.NumRows())
		span.Set("steps", limit)
		// Each half replays against its own filter-bitmap cache (any caller
		// cache in opts is bound to the full table, not the halves), so the
		// N-step replay compiles each distinct filter once instead of
		// materializing N sub-tables.
		opts := opts
		opts.Selections = sel
		sess, err := NewSession(data, opts)
		if err != nil {
			return nil, 0, err
		}
		applied := 0
		for _, step := range steps[:limit] {
			if _, err := sess.ApplyTraced(span, step); err != nil {
				break
			}
			applied++
		}
		span.Set("applied", applied)
		return sess, applied, nil
	}
	exploration, explApplied, err := replayPrefix(h.exploration, h.explorationSel, len(steps), "exploration")
	if err != nil {
		return ReplayValidation{}, err
	}
	validation, validApplied, err := replayPrefix(h.validation, h.validationSel, explApplied, "validation")
	if err != nil {
		return ReplayValidation{}, err
	}

	explHyps := exploration.Hypotheses()
	validHyps := validation.Hypotheses()
	out := ReplayValidation{
		Alpha:              h.alpha,
		Hypotheses:         make([]HypothesisValidation, 0, len(explHyps)),
		ExplorationApplied: explApplied,
		ValidationApplied:  validApplied,
	}
	// Map each hypothesis back to the journal entry that created it.
	seqOf := make(map[int]int, len(explHyps))
	kindOf := make(map[int]string, len(explHyps))
	for _, entry := range exploration.Log() {
		if entry.HypothesisID != 0 {
			seqOf[entry.HypothesisID] = entry.Seq
			kindOf[entry.HypothesisID] = entry.Step.Kind()
		}
	}
	for i, hyp := range explHyps {
		hv := HypothesisValidation{
			Seq:          seqOf[hyp.ID],
			Kind:         kindOf[hyp.ID],
			HypothesisID: hyp.ID,
			Null:         hyp.Null,
			Status:       hyp.Status,
			Exploration:  hyp.Test,
		}
		if i < len(validHyps) {
			hv.Validated = true
			hv.Validation = validHyps[i].Test
			hv.Confirmed = hyp.Test.PValue <= h.alpha && validHyps[i].Test.PValue <= h.alpha
		}
		out.Hypotheses = append(out.Hypotheses, hv)
		if hyp.Status == StatusActive {
			out.ActiveTotal++
			if hv.Confirmed {
				out.Confirmed++
			}
		}
	}
	return out, nil
}
