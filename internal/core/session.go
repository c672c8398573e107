package core

import (
	"fmt"
	"math"

	"aware/internal/dataset"
	"aware/internal/investing"
	"aware/internal/obs"
	"aware/internal/plan"
	"aware/internal/stats"
)

// Options configures a Session.
type Options struct {
	// Alpha is the mFDR control level; 0 means the paper default 0.05.
	Alpha float64
	// Policy is the α-investing rule used to assign per-test levels. Nil means
	// the paper's ε-hybrid default (ε = 0.5, γ = δ = 10, unlimited window).
	Policy investing.Policy
	// TargetPower is the power used by the n_H1 "how much more data"
	// annotation; 0 means 0.8.
	TargetPower float64
	// Selections is the filter-bitmap cache the session resolves predicates
	// through. Nil means a fresh private cache over the session's table; a
	// service that runs many sessions over one immutable dataset passes the
	// dataset's shared cache so all of them reuse each other's compiled
	// filters. When set, it must be a cache over the session's own table.
	Selections *dataset.SelectionCache
	// Pool, when non-nil, pins the execution pool the session's table runs its
	// morsel-parallel kernels on (dataset.Table.SetPool applies table-wide, so
	// sessions sharing one table should agree on the pool — a service
	// configures it once at dataset registration instead). The pool is an
	// execution hint only: results are bit-identical on any pool, and
	// dataset.NewPool(1) forces fully sequential execution for deterministic
	// debugging. Nil leaves the table's current pool untouched.
	Pool *dataset.Pool
	// Arena, when non-nil, pins the Selection word arena the session's table
	// compiles filters through (dataset.Table.SetArena — table-wide, like
	// Pool, so sessions sharing one table should agree on it; a service
	// configures it once per registered dataset). With an arena, steady-state
	// filter steps recycle their bitmap words instead of allocating. Like
	// Pool it is an execution hint only: results are bit-identical with or
	// without it. Nil leaves the table's current arena untouched.
	Arena *dataset.WordArena
	// Catalog, when non-nil, resolves registered dataset names for JoinDataset
	// steps (the server passes its dataset registry). Sessions without a
	// catalog reject join steps; every other step works without one.
	Catalog plan.Catalog
}

// Session is one AWARE exploration session over a fixed dataset. It owns the
// visualizations the user has created, the hypotheses derived from them (via
// the heuristics of Section 2.3 or explicit user actions), and the
// α-investing procedure that decides, incrementally and irrevocably, which
// null hypotheses are rejected.
//
// Every mutation is a Step applied through Apply — the exported mutating
// methods (AddVisualization, CompareVisualizations, TestAgainstExpectation,
// CompareMeans, CompareDistributions, DeclareDescriptive, Star) are one-line
// wrappers that build the corresponding Step — and every successful Step is
// recorded in the append-only journal returned by Log, so a session can be
// persisted and reconstructed deterministically with Replay.
//
// Session is not safe for concurrent use: every exported mutating method goes
// through Apply, and the accessors read state Apply mutates. Accessors return
// copied slices, but the *Visualization and *Hypothesis elements point at
// live session state, so even "read-only" use must be serialized with
// writers. A single-user front-end drives a Session from one event loop; a
// multi-session service must own each Session behind a per-session lock and
// finish serializing snapshots before releasing it, as
// internal/server.SessionManager does.
type Session struct {
	data     *dataset.Table
	sel      *dataset.SelectionCache
	catalog  plan.Catalog
	investor *investing.Investor
	alpha    float64
	power    float64

	// trace is the step span of the Apply in flight, set by ApplyTraced for
	// exactly the duration of the dispatch (the single-threaded contract makes
	// a plain field sufficient). Nil — the common case — keeps every kernel
	// call on its untraced fast path.
	trace *obs.Span

	visualizations []*Visualization
	hypotheses     []*Hypothesis
	journal        []AppliedStep
}

// NewSession opens a session over the given table.
func NewSession(data *dataset.Table, opts Options) (*Session, error) {
	if data == nil {
		return nil, fmt.Errorf("core: nil dataset")
	}
	alpha := opts.Alpha
	if alpha == 0 {
		alpha = investing.DefaultAlpha
	}
	cfg, err := investing.NewConfig(alpha)
	if err != nil {
		return nil, err
	}
	policy := opts.Policy
	if policy == nil {
		policy, err = investing.NewHybrid(0.5, 10, 10, cfg.Alpha, cfg.InitialWealth(), 0)
		if err != nil {
			return nil, err
		}
	}
	inv, err := investing.NewInvestor(cfg, policy)
	if err != nil {
		return nil, err
	}
	power := opts.TargetPower
	if power == 0 {
		power = 0.8
	}
	if power <= 0 || power >= 1 {
		return nil, fmt.Errorf("core: target power must be in (0, 1), got %v", power)
	}
	sel := opts.Selections
	if sel == nil {
		sel = dataset.NewSelectionCache(data)
	} else if sel.Table() != data {
		return nil, fmt.Errorf("core: selection cache is bound to a different table than the session")
	}
	if opts.Pool != nil {
		data.SetPool(opts.Pool)
	}
	if opts.Arena != nil {
		data.SetArena(opts.Arena)
	}
	return &Session{data: data, sel: sel, catalog: opts.Catalog, investor: inv, alpha: alpha, power: power}, nil
}

// Data returns the table the session explores.
func (s *Session) Data() *dataset.Table { return s.data }

// Alpha returns the session's mFDR control level.
func (s *Session) Alpha() float64 { return s.alpha }

// PolicyName returns the name of the active investing rule.
func (s *Session) PolicyName() string { return s.investor.PolicyName() }

// Wealth returns the remaining α-wealth.
func (s *Session) Wealth() float64 { return s.investor.Wealth() }

// Visualizations returns the visualizations created so far, in creation order.
func (s *Session) Visualizations() []*Visualization {
	out := make([]*Visualization, len(s.visualizations))
	copy(out, s.visualizations)
	return out
}

// Hypotheses returns every tracked hypothesis in creation order, including
// superseded and deleted ones (the risk gauge shows them greyed out).
func (s *Session) Hypotheses() []*Hypothesis {
	out := make([]*Hypothesis, len(s.hypotheses))
	copy(out, s.hypotheses)
	return out
}

// ActiveHypotheses returns the hypotheses that still count: not superseded,
// not deleted.
func (s *Session) ActiveHypotheses() []*Hypothesis {
	var out []*Hypothesis
	for _, h := range s.hypotheses {
		if h.Status == StatusActive {
			out = append(out, h)
		}
	}
	return out
}

// Discoveries returns the active hypotheses whose null was rejected.
func (s *Session) Discoveries() []*Hypothesis {
	var out []*Hypothesis
	for _, h := range s.ActiveHypotheses() {
		if h.Rejected {
			out = append(out, h)
		}
	}
	return out
}

// ImportantDiscoveries returns the starred discoveries. By Theorem 1 the FDR
// (and mFDR) guarantee of the full discovery set carries over to any subset
// selected independently of the p-values, so the user may report exactly
// these without further correction.
func (s *Session) ImportantDiscoveries() []*Hypothesis {
	var out []*Hypothesis
	for _, h := range s.Discoveries() {
		if h.Starred {
			out = append(out, h)
		}
	}
	return out
}

// visualization looks up a visualization by ID.
func (s *Session) visualization(id int) (*Visualization, error) {
	if id < 1 || id > len(s.visualizations) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownVisualization, id)
	}
	return s.visualizations[id-1], nil
}

// hypothesis looks up a hypothesis by ID.
func (s *Session) hypothesis(id int) (*Hypothesis, error) {
	if id < 1 || id > len(s.hypotheses) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownHypothesis, id)
	}
	return s.hypotheses[id-1], nil
}

// AddVisualization creates a new chart for the target attribute restricted by
// the given filter chain (nil for the whole dataset) and applies the default
// hypothesis heuristics:
//
//   - Rule 1: an unfiltered visualization is descriptive — no hypothesis is
//     created (the returned hypothesis is nil). The user can attach one later
//     with TestAgainstExpectation.
//   - Rule 2: a filtered visualization creates the default hypothesis that the
//     filter makes no difference compared to the distribution of the target
//     over the whole dataset, tested with a χ² goodness-of-fit test.
func (s *Session) AddVisualization(target string, filter dataset.Predicate) (*Visualization, *Hypothesis, error) {
	res, err := s.Apply(AddVisualization{Target: target, Filter: filter})
	if err != nil {
		return nil, nil, err
	}
	return res.Visualization, res.Hypothesis, nil
}

// CompareVisualizations applies heuristic rule 3: the two visualizations show
// the same target attribute under complementary (or simply different) filter
// chains, and the user placed them next to each other, so the default
// hypothesis becomes "the two visualized distributions do not differ", tested
// with a χ² independence test. Any rule-2 hypotheses previously attached to
// the two visualizations are superseded.
func (s *Session) CompareVisualizations(aID, bID int) (*Hypothesis, error) {
	res, err := s.Apply(CompareVisualizations{A: aID, B: bID})
	if err != nil {
		return nil, err
	}
	return res.Hypothesis, nil
}

// TestAgainstExpectation attaches a user-defined hypothesis to an unfiltered
// visualization (rule 1's escape hatch): the user states the proportions they
// expected for the target's categories, and the system tests the observed
// distribution against that expectation with a χ² goodness-of-fit test.
// The expected map gives relative weights per category; missing categories
// count as weight zero.
func (s *Session) TestAgainstExpectation(vizID int, expected map[string]float64) (*Hypothesis, error) {
	res, err := s.Apply(TestAgainstExpectation{Visualization: vizID, Expected: expected})
	if err != nil {
		return nil, err
	}
	return res.Hypothesis, nil
}

// CompareMeans overrides the default distribution comparison with a Welch
// t-test on the means of a numeric attribute between two filtered
// sub-populations — the explicit test of Figure 1 (F) where the user drags
// two age charts together and the default hypothesis m4 is replaced by m4'
// about the average age. Hypotheses previously attached to the two
// visualizations are superseded.
func (s *Session) CompareMeans(numericAttr string, aID, bID int) (*Hypothesis, error) {
	res, err := s.Apply(CompareMeans{Attribute: numericAttr, A: aID, B: bID})
	if err != nil {
		return nil, err
	}
	return res.Hypothesis, nil
}

// CompareDistributions overrides the default comparison with a two-sample
// Kolmogorov–Smirnov test on a numeric attribute between two filtered
// sub-populations — useful when the analyst cares about the whole shape of
// the distribution rather than its mean, or when the attribute is too skewed
// for a t-test. Hypotheses previously attached to the two visualizations are
// superseded, exactly as in CompareMeans.
func (s *Session) CompareDistributions(numericAttr string, aID, bID int) (*Hypothesis, error) {
	res, err := s.Apply(CompareDistributions{Attribute: numericAttr, A: aID, B: bID})
	if err != nil {
		return nil, err
	}
	return res.Hypothesis, nil
}

// DeclareDescriptive marks the hypothesis attached to a visualization as
// deleted: the user states that the chart was purely descriptive (or only a
// stepping stone, Section 2.4). The α-wealth already spent on it is not
// refunded — refunding would break the mFDR guarantee — but the hypothesis no
// longer appears among the session's findings.
func (s *Session) DeclareDescriptive(vizID int) error {
	_, err := s.Apply(DeclareDescriptive{Visualization: vizID})
	return err
}

// Star marks or unmarks a hypothesis as an important discovery (Figure 2 E).
func (s *Session) Star(hypothesisID int, starred bool) error {
	_, err := s.Apply(Star{Hypothesis: hypothesisID, Starred: starred})
	return err
}

// --- step implementations ---
//
// Each of the following performs all fallible work (lookups, statistics, the
// α-investing decision) before mutating session state, so that a failed step
// leaves the session exactly as it was: Apply's atomicity contract.

func (s *Session) addVisualization(target string, filter dataset.Predicate) (*Visualization, *Hypothesis, error) {
	if !s.data.HasColumn(target) {
		return nil, nil, fmt.Errorf("%w: %q", dataset.ErrColumnNotFound, target)
	}
	viz := &Visualization{ID: len(s.visualizations) + 1, Target: target, Filter: filter}
	if filter == nil {
		s.visualizations = append(s.visualizations, viz)
		return viz, nil, nil // Rule 1: descriptive.
	}
	hyp, err := s.testFilterVsPopulation(viz)
	if err != nil {
		return nil, nil, err
	}
	s.visualizations = append(s.visualizations, viz)
	viz.HypothesisID = hyp.ID
	return viz, hyp, nil
}

func (s *Session) compareVisualizations(aID, bID int) (*Hypothesis, error) {
	a, err := s.visualization(aID)
	if err != nil {
		return nil, err
	}
	b, err := s.visualization(bID)
	if err != nil {
		return nil, err
	}
	if a.Target != b.Target {
		return nil, fmt.Errorf("%w: %q vs %q", ErrNotComplementary, a.Target, b.Target)
	}
	test, nA, nB, err := comparisonTest(s.sel, a.Target, a.Filter, b.Filter, s.trace)
	if err != nil {
		return nil, fmt.Errorf("core: comparison hypothesis for %q vs %q: %w", a.Describe(), b.Describe(), err)
	}
	hyp, err := s.record(test, Hypothesis{
		Null:            fmt.Sprintf("%s = %s", a.Describe(), b.Describe()),
		Alternative:     fmt.Sprintf("%s <> %s", a.Describe(), b.Describe()),
		Source:          SourceRule3,
		VisualizationID: a.ID,
		SupportSize:     nA + nB,
	})
	if err != nil {
		return nil, err
	}
	// Supersede the single-visualization hypotheses: the side-by-side
	// comparison replaces them (Section 2.3, rule 3).
	s.supersedeAttached(hyp, a, b)
	return hyp, nil
}

func (s *Session) testAgainstExpectation(vizID int, expected map[string]float64) (*Hypothesis, error) {
	viz, err := s.visualization(vizID)
	if err != nil {
		return nil, err
	}
	sub, err := s.sel.ViewSpan(viz.Filter, s.trace)
	if err != nil {
		return nil, err
	}
	cats, err := s.data.Categories(viz.Target)
	if err != nil {
		return nil, err
	}
	observed, err := sub.CountsForSpan(viz.Target, cats, s.trace)
	if err != nil {
		return nil, err
	}
	weights := make([]float64, len(cats))
	for i, c := range cats {
		weights[i] = expected[c]
	}
	test, err := stats.ChiSquaredGoodnessOfFit(observed, weights)
	if err != nil {
		return nil, fmt.Errorf("core: testing expectation for %q: %w", viz.Describe(), err)
	}
	hyp, err := s.record(test, Hypothesis{
		Null:            fmt.Sprintf("%s = expected distribution", viz.Describe()),
		Alternative:     fmt.Sprintf("%s <> expected distribution", viz.Describe()),
		Source:          SourceUser,
		VisualizationID: viz.ID,
		SupportSize:     sub.NumRows(),
	})
	if err != nil {
		return nil, err
	}
	s.supersedeAttached(hyp, viz)
	return hyp, nil
}

func (s *Session) compareMeans(numericAttr string, aID, bID int) (*Hypothesis, error) {
	return s.compareNumeric("mean", numericAttr, aID, bID, func(subA, subB dataset.View) (stats.TestResult, error) {
		x, err := subA.Moments(numericAttr, s.trace)
		if err != nil {
			return stats.TestResult{}, err
		}
		y, err := subB.Moments(numericAttr, s.trace)
		if err != nil {
			return stats.TestResult{}, err
		}
		res, err := stats.WelchFromMoments(x, y, stats.TwoSided)
		if err != nil {
			return res, fmt.Errorf("core: comparing means of %q: %w", numericAttr, err)
		}
		return res, nil
	})
}

func (s *Session) compareDistributions(numericAttr string, aID, bID int) (*Hypothesis, error) {
	return s.compareNumeric("dist", numericAttr, aID, bID, func(subA, subB dataset.View) (stats.TestResult, error) {
		x, err := subA.Tally(numericAttr, s.trace)
		if err != nil {
			return stats.TestResult{}, err
		}
		y, err := subB.Tally(numericAttr, s.trace)
		if err != nil {
			return stats.TestResult{}, err
		}
		res, err := x.KS(y)
		if err != nil {
			return res, fmt.Errorf("core: comparing distributions of %q: %w", numericAttr, err)
		}
		return res, nil
	})
}

// compareNumeric is the explicit comparison of two visualizations on a
// numeric attribute: it resolves their filtered sub-populations, runs test
// over the two views and records the hypothesis "what a | A = what a | B".
func (s *Session) compareNumeric(what, numericAttr string, aID, bID int, test func(subA, subB dataset.View) (stats.TestResult, error)) (*Hypothesis, error) {
	a, err := s.visualization(aID)
	if err != nil {
		return nil, err
	}
	b, err := s.visualization(bID)
	if err != nil {
		return nil, err
	}
	subA, err := s.sel.ViewSpan(a.Filter, s.trace)
	if err != nil {
		return nil, err
	}
	subB, err := s.sel.ViewSpan(b.Filter, s.trace)
	if err != nil {
		return nil, err
	}
	res, err := test(subA, subB)
	if err != nil {
		return nil, err
	}
	hyp, err := s.record(res, Hypothesis{
		Null:            fmt.Sprintf("%s %s | (%s) = %s %s | (%s)", what, numericAttr, describeFilter(a.Filter), what, numericAttr, describeFilter(b.Filter)),
		Alternative:     fmt.Sprintf("%s %s | (%s) <> %s %s | (%s)", what, numericAttr, describeFilter(a.Filter), what, numericAttr, describeFilter(b.Filter)),
		Source:          SourceUser,
		VisualizationID: a.ID,
		SupportSize:     res.N,
	})
	if err != nil {
		return nil, err
	}
	s.supersedeAttached(hyp, a, b)
	return hyp, nil
}

func (s *Session) declareDescriptive(vizID int) error {
	viz, err := s.visualization(vizID)
	if err != nil {
		return err
	}
	if viz.HypothesisID == 0 {
		return nil
	}
	hyp, err := s.hypothesis(viz.HypothesisID)
	if err != nil {
		return err
	}
	hyp.Status = StatusDeleted
	viz.HypothesisID = 0
	return nil
}

func (s *Session) star(hypothesisID int, starred bool) error {
	hyp, err := s.hypothesis(hypothesisID)
	if err != nil {
		return err
	}
	hyp.Starred = starred
	return nil
}

// supersedeAttached marks the active hypotheses currently attached to the
// visualizations as superseded and attaches the replacement in their place.
func (s *Session) supersedeAttached(replacement *Hypothesis, vizzes ...*Visualization) {
	for _, viz := range vizzes {
		if viz.HypothesisID != 0 && viz.HypothesisID != replacement.ID {
			if prev, err := s.hypothesis(viz.HypothesisID); err == nil && prev.Status == StatusActive {
				prev.Status = StatusSuperseded
			}
		}
		viz.HypothesisID = replacement.ID
	}
}

// testFilterVsPopulation runs the rule-2 default hypothesis for a filtered
// visualization.
func (s *Session) testFilterVsPopulation(viz *Visualization) (*Hypothesis, error) {
	test, support, err := filterVsPopulationTest(s.sel, viz.Target, viz.Filter, s.trace)
	if err != nil {
		return nil, fmt.Errorf("core: default hypothesis for %q: %w", viz.Describe(), err)
	}
	return s.record(test, Hypothesis{
		Null:            fmt.Sprintf("%s = %s", viz.Describe(), viz.Target),
		Alternative:     fmt.Sprintf("%s <> %s", viz.Describe(), viz.Target),
		Source:          SourceRule2,
		VisualizationID: viz.ID,
		SupportSize:     support,
	})
}

// record routes a completed statistical test through the α-investing
// procedure, fills in the bookkeeping fields and stores the hypothesis.
func (s *Session) record(test stats.TestResult, proto Hypothesis) (*Hypothesis, error) {
	decision, err := s.investor.Test(test.PValue, investing.TestContext{
		SupportSize:    proto.SupportSize,
		PopulationSize: s.data.NumRows(),
	})
	if err != nil {
		if err == investing.ErrExhausted {
			return nil, ErrWealthExhausted
		}
		return nil, err
	}
	hyp := proto
	hyp.ID = len(s.hypotheses) + 1
	hyp.Status = StatusActive
	hyp.Test = test
	hyp.AlphaInvested = decision.Alpha
	hyp.Rejected = decision.Rejected
	hyp.WealthAfter = decision.WealthAfter
	hyp.PopulationSize = s.data.NumRows()
	hyp.DataMultiplier = s.dataMultiplier(test, proto.SupportSize)
	s.hypotheses = append(s.hypotheses, &hyp)
	return s.hypotheses[len(s.hypotheses)-1], nil
}

// dataMultiplier estimates the n_H1 annotation: how many times the current
// support would be needed for the observed effect to reach the target power at
// the session α. Chi-squared effect sizes (Cramér's V) are treated as Cohen's
// w, for which the same normal-approximation sample-size formula applies.
func (s *Session) dataMultiplier(test stats.TestResult, supportSize int) float64 {
	if supportSize <= 0 {
		return math.Inf(1)
	}
	effect := math.Abs(test.EffectSize)
	if effect == 0 {
		return math.Inf(1)
	}
	mult, err := stats.RequiredMultiplier(supportSize, effect, s.alpha, s.power, stats.TwoSided)
	if err != nil {
		return math.NaN()
	}
	return mult
}
