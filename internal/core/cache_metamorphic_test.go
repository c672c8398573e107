package core_test

import (
	"math"
	"sync"
	"testing"

	"aware/internal/census"
	"aware/internal/core"
	"aware/internal/dataset"
)

// This file is the metamorphic gate for the shared filter-bitmap cache: the
// cache bounds its memory by evicting, so a step may find its filter cached,
// evicted, or re-inserted by another session. None of that may move an
// answer: one step script applied through Session.Apply must produce the
// same p-values, α bids and wealth, bit for bit, whatever state the cache
// is in.

// metamorphicFilters are the script's six distinct chart filters.
func metamorphicFilters() []dataset.Predicate {
	return []dataset.Predicate{
		dataset.Equals{Column: census.ColSalaryOver50K, Value: "true"},
		dataset.Range{Column: census.ColAge, Low: 25, High: 40},
		dataset.Equals{Column: census.ColEducation, Value: "Bachelor"},
		dataset.GreaterThan{Column: census.ColHoursPerWeek, Threshold: 45},
		dataset.And{Terms: []dataset.Predicate{
			dataset.Equals{Column: census.ColGender, Value: "Female"},
			dataset.Range{Column: census.ColAge, Low: 30, High: 60},
		}},
		dataset.NewIn(census.ColMaritalStatus, "Married", "Widowed"),
	}
}

// metamorphicScript charts six distinct filters, compares two pairs of the
// charts, tests a difference in means and a group-by independence.
func metamorphicScript() []core.Step {
	var steps []core.Step
	for i, f := range metamorphicFilters() {
		target := census.ColGender
		if i%2 == 1 {
			target = census.ColEducation
		}
		steps = append(steps, core.AddVisualization{Target: target, Filter: f})
	}
	return append(steps,
		core.CompareVisualizations{A: 1, B: 3},
		core.CompareVisualizations{A: 2, B: 4},
		core.CompareMeans{Attribute: census.ColHoursPerWeek, A: 5, B: 6},
		core.GroupByHypothesis{RowAttr: census.ColEducation, ColAttr: census.ColOccupation, Filter: metamorphicFilters()[0]},
	)
}

// runMetamorphicScript applies the script in a session over the cache and
// returns every hypothesis's p-value, α bid and wealth after it, then the
// final wealth, as bit patterns.
func runMetamorphicScript(tab *dataset.Table, cache *dataset.SelectionCache) ([]uint64, error) {
	sess, err := core.NewSession(tab, core.Options{Selections: cache})
	if err != nil {
		return nil, err
	}
	for _, step := range metamorphicScript() {
		if _, err := sess.Apply(step); err != nil {
			return nil, err
		}
	}
	var bits []uint64
	for _, h := range sess.Hypotheses() {
		bits = append(bits, math.Float64bits(h.Test.PValue), math.Float64bits(h.AlphaInvested), math.Float64bits(h.WealthAfter))
	}
	return append(bits, math.Float64bits(sess.Wealth())), nil
}

func metamorphicTable(t *testing.T) *dataset.Table {
	t.Helper()
	tab, err := census.Generate(census.Config{Rows: 20000, Seed: 29, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With an arena, a lost insert race releases its copy's words: the
	// concurrent variant below covers that path.
	tab.SetArena(dataset.NewWordArena(tab.NumRows()))
	return tab
}

func requireSameBits(t *testing.T, label string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: value %d is %v, want %v", label, i, math.Float64frombits(got[i]), math.Float64frombits(want[i]))
		}
	}
}

// TestCacheStateNeverMovesAnAnswer runs the script on a fresh default cache,
// on a one-entry cache where every new filter evicts, and on a shared cache
// that another session warmed and that was then forced to evict and
// re-insert.
func TestCacheStateNeverMovesAnAnswer(t *testing.T) {
	tab := metamorphicTable(t)
	want, err := runMetamorphicScript(tab, dataset.NewSelectionCache(tab))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 2*3+1 {
		t.Fatalf("the script recorded only %d values", len(want))
	}

	got, err := runMetamorphicScript(tab, dataset.NewSelectionCacheCap(tab, 1))
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "one-entry cache", got, want)

	shared := dataset.NewSelectionCacheCap(tab, 4)
	if _, err := runMetamorphicScript(tab, shared); err != nil {
		t.Fatal(err)
	}
	// Evict the warm entries with unrelated filters, then re-insert half of
	// the script's filters, so its steps meet hits, misses and re-inserted
	// bitmaps. The first filter goes in last: eviction is arbitrary, and the
	// latest insert is the one entry sure to be there when the script's first
	// chart looks it up.
	for age := 70.0; age < 78; age++ {
		if _, err := shared.Where(dataset.GreaterThan{Column: census.ColAge, Threshold: age}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 2; i >= 0; i-- {
		if _, err := shared.Where(metamorphicFilters()[i]); err != nil {
			t.Fatal(err)
		}
	}
	hits0, _, misses0 := shared.Stats()
	got, err = runMetamorphicScript(tab, shared)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "warmed, evicted and re-inserted cache", got, want)
	if hits, _, misses := shared.Stats(); hits == hits0 || misses == misses0 {
		t.Errorf("the script met %d hits and %d misses; it should meet both", hits-hits0, misses-misses0)
	}
}

// TestCacheStateConcurrentSessions runs the script in two sessions at once
// over one shared two-entry cache, so each session's inserts evict the
// other's bitmaps and both may race to insert the same filter. Run it with
// -race -count=10.
func TestCacheStateConcurrentSessions(t *testing.T) {
	tab := metamorphicTable(t)
	want, err := runMetamorphicScript(tab, dataset.NewSelectionCache(tab))
	if err != nil {
		t.Fatal(err)
	}
	shared := dataset.NewSelectionCacheCap(tab, 2)
	results := make([][]uint64, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for k := range results {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			results[k], errs[k] = runMetamorphicScript(tab, shared)
		}(k)
	}
	wg.Wait()
	for k, got := range results {
		if errs[k] != nil {
			t.Fatalf("session %d: %v", k, errs[k])
		}
		requireSameBits(t, "concurrent session", got, want)
	}
}
