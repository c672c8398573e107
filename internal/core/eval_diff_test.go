package core

import (
	"math/rand"
	"testing"

	"aware/internal/dataset"
	"aware/internal/stats"
)

// This file checks the vectorized evaluation layer against the
// pre-vectorization counting, kept here verbatim as the reference over
// sub-tables materialized by Table.Filter: for randomized tables and filters,
// FilterVsPopulationTestWith and ComparisonTestWith must produce bit-for-bit
// identical counts, statistics and p-values. That Where selects the rows a
// row-at-a-time evaluation selects is pinned in the dataset package.

// legacyReferenceCounts is the old materializing referenceCounts.
func legacyReferenceCounts(ref, sub *dataset.Table, target string) ([]int, error) {
	col, err := ref.Column(target)
	if err != nil {
		return nil, err
	}
	if col.Type == dataset.Categorical || col.Type == dataset.Bool {
		cats, err := ref.Categories(target)
		if err != nil {
			return nil, err
		}
		valueCounts, err := sub.ValueCounts(target)
		if err != nil {
			return nil, err
		}
		counts := make([]int, len(cats))
		for i, cat := range cats {
			counts[i] = valueCounts[cat]
		}
		return counts, nil
	}
	all, err := ref.Floats(target)
	if err != nil {
		return nil, err
	}
	hist, err := stats.NewHistogram(all, numericBins)
	if err != nil {
		return nil, err
	}
	vals, err := sub.Floats(target)
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(hist.Counts))
	lo := hist.Edges[0]
	hi := hist.Edges[len(hist.Edges)-1]
	width := (hi - lo) / float64(len(counts))
	if width <= 0 {
		counts[0] = len(vals)
		return counts, nil
	}
	for _, v := range vals {
		idx := int((v - lo) / width)
		if idx < 0 {
			idx = 0
		}
		if idx >= len(counts) {
			idx = len(counts) - 1
		}
		counts[idx]++
	}
	return counts, nil
}

// legacyFilterVsPopulationTest is the old materializing rule-2 test.
func legacyFilterVsPopulationTest(ref *dataset.Table, target string, filter dataset.Predicate) (stats.TestResult, int, error) {
	sub, err := ref.Filter(filter)
	if err != nil {
		return stats.TestResult{}, 0, err
	}
	observed, err := legacyReferenceCounts(ref, sub, target)
	if err != nil {
		return stats.TestResult{}, 0, err
	}
	popCounts, err := legacyReferenceCounts(ref, ref, target)
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

// legacyComparisonTest is the old materializing rule-3 test.
func legacyComparisonTest(ref *dataset.Table, target string, filterA, filterB dataset.Predicate) (stats.TestResult, int, int, error) {
	subA, err := ref.Filter(filterA)
	if err != nil {
		return stats.TestResult{}, 0, 0, err
	}
	subB, err := ref.Filter(filterB)
	if err != nil {
		return stats.TestResult{}, 0, 0, err
	}
	countsA, err := legacyReferenceCounts(ref, subA, target)
	if err != nil {
		return stats.TestResult{}, 0, 0, err
	}
	countsB, err := legacyReferenceCounts(ref, subB, target)
	if err != nil {
		return stats.TestResult{}, 0, 0, err
	}
	test, err := stats.ChiSquaredIndependence([][]int{countsA, countsB})
	if err != nil {
		return stats.TestResult{}, 0, 0, err
	}
	return test, subA.NumRows(), subB.NumRows(), nil
}

func diffTestTable(rng *rand.Rand, rows int) *dataset.Table {
	groups := []string{"a", "b", "c"}
	gs := make([]string, rows)
	flags := make([]bool, rows)
	ages := make([]float64, rows)
	for i := range gs {
		gs[i] = groups[rng.Intn(len(groups))]
		flags[i] = rng.Intn(3) == 0
		ages[i] = 18 + rng.Float64()*50
	}
	tab, err := dataset.NewTable(
		dataset.NewCategoricalColumn("group", gs),
		dataset.NewBoolColumn("flag", flags),
		dataset.NewFloatColumn("age", ages),
	)
	if err != nil {
		panic(err)
	}
	return tab
}

func diffFilters(rng *rand.Rand) []dataset.Predicate {
	return []dataset.Predicate{
		nil,
		dataset.Equals{Column: "group", Value: "a"},
		dataset.Equals{Column: "flag", Value: "true"},
		dataset.NewIn("group", "b", "c"),
		dataset.Range{Column: "age", Low: 25, High: 45},
		dataset.GreaterThan{Column: "age", Threshold: 30 + rng.Float64()*10},
		dataset.Not{Inner: dataset.Equals{Column: "group", Value: "b"}},
		dataset.And{Terms: []dataset.Predicate{
			dataset.Equals{Column: "flag", Value: "false"},
			dataset.GreaterThan{Column: "age", Threshold: 40},
		}},
		dataset.Or{Terms: []dataset.Predicate{
			dataset.Equals{Column: "group", Value: "c"},
			dataset.Range{Column: "age", Low: 20, High: 25},
		}},
	}
}

func sameTest(t *testing.T, label string, got, want stats.TestResult) {
	t.Helper()
	if got.PValue != want.PValue || got.Statistic != want.Statistic || got.DF != want.DF || got.EffectSize != want.EffectSize {
		t.Errorf("%s: vectorized %+v != legacy %+v", label, got, want)
	}
}

func TestFilterVsPopulationMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		tab := diffTestTable(rng, 50+rng.Intn(300))
		sel := dataset.NewSelectionCache(tab)
		for _, target := range []string{"group", "flag", "age"} {
			for fi, filter := range diffFilters(rng) {
				label := describeFilter(filter)
				gotTest, gotN, gotErr := FilterVsPopulationTestWith(sel, target, filter)
				wantTest, wantN, wantErr := legacyFilterVsPopulationTest(tab, target, filter)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("trial %d filter %d (%s) target %s: error mismatch: vectorized %v, legacy %v",
						trial, fi, label, target, gotErr, wantErr)
				}
				if gotErr != nil {
					continue
				}
				if gotN != wantN {
					t.Errorf("%s | %s: support %d != legacy %d", target, label, gotN, wantN)
				}
				sameTest(t, target+" | "+label, gotTest, wantTest)
			}
		}
	}
}

func TestComparisonMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		tab := diffTestTable(rng, 80+rng.Intn(200))
		sel := dataset.NewSelectionCache(tab)
		filters := diffFilters(rng)
		for _, target := range []string{"group", "flag", "age"} {
			for i := 0; i < len(filters); i++ {
				fa, fb := filters[i], filters[(i+3)%len(filters)]
				gotTest, gotA, gotB, gotErr := ComparisonTestWith(sel, target, fa, fb)
				wantTest, wantA, wantB, wantErr := legacyComparisonTest(tab, target, fa, fb)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("trial %d target %s: error mismatch: vectorized %v, legacy %v", trial, target, gotErr, wantErr)
				}
				if gotErr != nil {
					continue
				}
				if gotA != wantA || gotB != wantB {
					t.Errorf("target %s: supports (%d,%d) != legacy (%d,%d)", target, gotA, gotB, wantA, wantB)
				}
				sameTest(t, target, gotTest, wantTest)
			}
		}
	}
}
