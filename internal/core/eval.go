package core

import (
	"aware/internal/dataset"
	"aware/internal/obs"
	"aware/internal/stats"
)

// This file holds the pure test-evaluation layer under the Session: the χ²
// comparisons behind heuristic rules 2 and 3, computed against a fixed
// reference table but independent of any session state or α-investing. The
// Session routes its default hypotheses through these functions, and
// internal/census evaluates the user-study workflows through the very same
// ones, so the interactive service and the paper-figure harness share one
// code path.
//
// Evaluation is vectorized end to end: filters compile to bitmap Selections
// through a dataset.SelectionCache (so repeated filters — within a session,
// across a replayed log, or across every session of a served dataset — reuse
// one bitmap), and all counting runs over zero-copy Views instead of
// materialized sub-tables.

// numericBins is the number of equal-width bins used when a visualization
// targets a numeric attribute (the age histograms of Figure 1 D–F). Bin edges
// are always derived from the full dataset so that filtered sub-populations
// are compared on the same axes the user sees.
const numericBins = 10

// referenceCounts returns the per-category (or per-bin, for numeric targets)
// counts of target within the view, using the view's full table as the
// reference that fixes the category set / bin edges. A non-nil span records
// the counting kernel under the caller's trace.
func referenceCounts(sub dataset.View, target string, span *obs.Span) ([]int, error) {
	ref := sub.Table()
	col, err := ref.Column(target)
	if err != nil {
		return nil, err
	}
	if col.Type == dataset.Categorical || col.Type == dataset.Bool {
		cats, err := ref.Categories(target)
		if err != nil {
			return nil, err
		}
		return sub.CountsForSpan(target, cats, span)
	}
	// Numeric target: bin on edges computed over the reference table. The
	// per-row bin assignment is memoized on the column, so only the first
	// hypothesis over this target pays the binning arithmetic.
	return sub.BinCountsSpan(target, numericBins, span)
}

// FilterVsPopulationTest runs heuristic rule 2's default test: the
// distribution of target under filter against its distribution over the whole
// reference table, as a χ² goodness-of-fit test. It returns the test result
// and the filtered support size.
func FilterVsPopulationTest(ref *dataset.Table, target string, filter dataset.Predicate) (stats.TestResult, int, error) {
	return FilterVsPopulationTestWith(dataset.NewSelectionCache(ref), target, filter)
}

// FilterVsPopulationTestWith is FilterVsPopulationTest resolving filters
// through the given selection cache (the session's own, or a server-wide
// per-dataset cache shared across sessions).
func FilterVsPopulationTestWith(sel *dataset.SelectionCache, target string, filter dataset.Predicate) (stats.TestResult, int, error) {
	return filterVsPopulationTest(sel, target, filter, nil)
}

// filterVsPopulationTest is the span-aware body behind
// FilterVsPopulationTestWith: a traced session passes its step span so the
// filter compilation and both counting passes appear as kernel spans.
func filterVsPopulationTest(sel *dataset.SelectionCache, target string, filter dataset.Predicate, span *obs.Span) (stats.TestResult, int, error) {
	sub, err := sel.ViewSpan(filter, span)
	if err != nil {
		return stats.TestResult{}, 0, err
	}
	observed, err := referenceCounts(sub, target, span)
	if err != nil {
		return stats.TestResult{}, 0, err
	}
	pop, err := sel.ViewSpan(nil, span)
	if err != nil {
		return stats.TestResult{}, 0, err
	}
	popCounts, err := referenceCounts(pop, target, span)
	if err != nil {
		return stats.TestResult{}, 0, err
	}
	expected := make([]float64, len(popCounts))
	for i, c := range popCounts {
		expected[i] = float64(c)
	}
	test, err := stats.ChiSquaredGoodnessOfFit(observed, expected)
	if err != nil {
		return stats.TestResult{}, 0, err
	}
	return test, sub.NumRows(), nil
}

// ComparisonTest runs heuristic rule 3's default test: a χ² independence test
// between the distributions of target under filterA and under filterB, with
// the category set / bin edges fixed by the reference table. It returns the
// test result and the two support sizes.
func ComparisonTest(ref *dataset.Table, target string, filterA, filterB dataset.Predicate) (stats.TestResult, int, int, error) {
	return ComparisonTestWith(dataset.NewSelectionCache(ref), target, filterA, filterB)
}

// ComparisonTestWith is ComparisonTest resolving filters through the given
// selection cache.
func ComparisonTestWith(sel *dataset.SelectionCache, target string, filterA, filterB dataset.Predicate) (stats.TestResult, int, int, error) {
	return comparisonTest(sel, target, filterA, filterB, nil)
}

// comparisonTest is the span-aware body behind ComparisonTestWith.
func comparisonTest(sel *dataset.SelectionCache, target string, filterA, filterB dataset.Predicate, span *obs.Span) (stats.TestResult, int, int, error) {
	subA, err := sel.ViewSpan(filterA, span)
	if err != nil {
		return stats.TestResult{}, 0, 0, err
	}
	subB, err := sel.ViewSpan(filterB, span)
	if err != nil {
		return stats.TestResult{}, 0, 0, err
	}
	countsA, err := referenceCounts(subA, target, span)
	if err != nil {
		return stats.TestResult{}, 0, 0, err
	}
	countsB, err := referenceCounts(subB, target, span)
	if err != nil {
		return stats.TestResult{}, 0, 0, err
	}
	test, err := stats.ChiSquaredIndependence([][]int{countsA, countsB})
	if err != nil {
		return stats.TestResult{}, 0, 0, err
	}
	return test, subA.NumRows(), subB.NumRows(), nil
}

// describeFilter renders a possibly-nil filter.
func describeFilter(p dataset.Predicate) string {
	if p == nil {
		return "all"
	}
	return p.Describe()
}
