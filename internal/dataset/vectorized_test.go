package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// This file is the differential test bed for the vectorized execution path:
// for randomized tables and randomized predicate trees covering all seven
// predicate types over every column type, the bitmap kernels (Table.Where)
// and the zero-copy View reads must agree exactly with the row-at-a-time
// reference implementation (Predicate.Matches) and with reads over a
// materialized sub-table.

// randomTable builds a table with one column of every type. Row counts hover
// around the 64-bit word boundary so the bitmap tail masking is exercised.
func randomTable(rng *rand.Rand) *Table {
	rows := 1 + rng.Intn(130) // 1..130 spans 1- and 3-word bitmaps
	cats := []string{"red", "green", "blue", "violet"}
	strs := make([]string, rows)
	bools := make([]bool, rows)
	floats := make([]float64, rows)
	ints := make([]int64, rows)
	for i := 0; i < rows; i++ {
		strs[i] = cats[rng.Intn(len(cats))]
		bools[i] = rng.Intn(2) == 0
		floats[i] = math.Round(rng.NormFloat64()*100) / 10
		ints[i] = int64(rng.Intn(40) - 20)
	}
	tab, err := NewTable(
		NewCategoricalColumn("color", strs),
		NewBoolColumn("flag", bools),
		NewFloatColumn("score", floats),
		NewIntColumn("level", ints),
	)
	if err != nil {
		panic(err)
	}
	return tab
}

// randomPredicate draws a predicate tree of bounded depth. Leaves sometimes
// reference values absent from the table, and occasionally mistype a column
// so that the error paths are compared too.
func randomPredicate(rng *rand.Rand, depth int) Predicate {
	catValues := []string{"red", "green", "blue", "violet", "absent"}
	catCols := []string{"color", "flag"}
	numCols := []string{"score", "level"}
	// Occasionally cross the types to exercise error parity.
	if rng.Intn(20) == 0 {
		catCols, numCols = numCols, catCols
	}
	leaf := func() Predicate {
		switch rng.Intn(4) {
		case 0:
			vals := []string{"true", "false", catValues[rng.Intn(len(catValues))]}
			return Equals{Column: catCols[rng.Intn(len(catCols))], Value: vals[rng.Intn(len(vals))]}
		case 1:
			n := 1 + rng.Intn(3)
			vals := make([]string, n)
			for i := range vals {
				vals[i] = append(catValues, "true", "false")[rng.Intn(len(catValues)+2)]
			}
			if rng.Intn(2) == 0 {
				return NewIn(catCols[rng.Intn(len(catCols))], vals...)
			}
			return In{Column: catCols[rng.Intn(len(catCols))], Values: vals}
		case 2:
			lo := rng.NormFloat64() * 8
			return Range{Column: numCols[rng.Intn(len(numCols))], Low: lo, High: lo + rng.Float64()*15}
		default:
			return GreaterThan{Column: numCols[rng.Intn(len(numCols))], Threshold: rng.NormFloat64() * 8}
		}
	}
	if depth <= 0 {
		return leaf()
	}
	switch rng.Intn(6) {
	case 0:
		return Not{Inner: randomPredicate(rng, depth-1)}
	case 1, 2:
		n := rng.Intn(3)
		terms := make([]Predicate, n)
		for i := range terms {
			terms[i] = randomPredicate(rng, depth-1)
		}
		return And{Terms: terms}
	case 3:
		n := rng.Intn(3)
		terms := make([]Predicate, n)
		for i := range terms {
			terms[i] = randomPredicate(rng, depth-1)
		}
		return Or{Terms: terms}
	default:
		return leaf()
	}
}

// referenceIndices evaluates the predicate row by row with Matches — the
// reference implementation the kernels are checked against.
func referenceIndices(t *Table, p Predicate) ([]int, error) {
	var out []int
	for i := 0; i < t.NumRows(); i++ {
		ok, err := p.Matches(t, i)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, i)
		}
	}
	return out, nil
}

// legacyBinCounts replicates the pre-vectorization numeric binning (the old
// core.referenceCounts arithmetic) over an explicit value slice.
func legacyBinCounts(all, vals []float64, bins int) []int {
	min, max := all[0], all[0]
	for _, v := range all[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min == max {
		max = min + 1
	}
	hw := (max - min) / float64(bins)
	lo := min
	hi := min + float64(bins)*hw
	counts := make([]int, bins)
	width := (hi - lo) / float64(bins)
	if width <= 0 {
		counts[0] = len(vals)
		return counts
	}
	for _, v := range vals {
		idx := int((v - lo) / width)
		if idx < 0 {
			idx = 0
		}
		if idx >= bins {
			idx = bins - 1
		}
		counts[idx]++
	}
	return counts
}

func TestVectorizedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		tab := randomTable(rng)
		pred := randomPredicate(rng, 2+rng.Intn(2))
		label := fmt.Sprintf("trial %d (%d rows): %s", trial, tab.NumRows(), pred.Describe())

		wantIdx, wantErr := referenceIndices(tab, pred)
		sel, gotErr := tab.Where(pred)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: error mismatch: reference %v, vectorized %v", label, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if got := sel.Indices(); !reflect.DeepEqual(got, wantIdx) && !(len(got) == 0 && len(wantIdx) == 0) {
			t.Fatalf("%s: indices mismatch:\n  reference  %v\n  vectorized %v", label, wantIdx, got)
		}
		if sel.Count() != len(wantIdx) {
			t.Fatalf("%s: Count = %d, reference %d", label, sel.Count(), len(wantIdx))
		}

		// The zero-copy view must read exactly what the materialized
		// sub-table reads.
		view, err := tab.View(pred)
		if err != nil {
			t.Fatalf("%s: View: %v", label, err)
		}
		sub, err := tab.Select(wantIdx)
		if err != nil {
			t.Fatalf("%s: Select: %v", label, err)
		}
		for _, col := range []string{"color", "flag"} {
			cats, err := tab.Categories(col)
			if err != nil {
				t.Fatal(err)
			}
			valueCounts, err := sub.ValueCounts(col)
			if err != nil {
				t.Fatal(err)
			}
			wantCounts := make([]int, len(cats))
			for i, cat := range cats {
				wantCounts[i] = valueCounts[cat]
			}
			gotCounts, err := view.CountsFor(col, cats)
			if err != nil {
				t.Fatalf("%s: view CountsFor(%s): %v", label, col, err)
			}
			if !reflect.DeepEqual(gotCounts, wantCounts) {
				t.Fatalf("%s: CountsFor(%s) mismatch:\n  reference  %v\n  vectorized %v", label, col, wantCounts, gotCounts)
			}
			wantGroups, err := sub.GroupBy(col)
			if err != nil {
				t.Fatal(err)
			}
			gotGroups, err := view.GroupBy(col)
			if err != nil {
				t.Fatalf("%s: view GroupBy(%s): %v", label, col, err)
			}
			if !reflect.DeepEqual(gotGroups, wantGroups) && !(len(gotGroups) == 0 && len(wantGroups) == 0) {
				t.Fatalf("%s: GroupBy(%s) mismatch:\n  reference  %v\n  vectorized %v", label, col, wantGroups, gotGroups)
			}
		}
		for _, col := range []string{"score", "level"} {
			wantFloats, err := sub.Floats(col)
			if err != nil {
				t.Fatal(err)
			}
			gotFloats, err := view.Floats(col)
			if err != nil {
				t.Fatalf("%s: view Floats(%s): %v", label, col, err)
			}
			if !reflect.DeepEqual(gotFloats, wantFloats) && !(len(gotFloats) == 0 && len(wantFloats) == 0) {
				t.Fatalf("%s: Floats(%s) mismatch", label, col)
			}
			all, err := tab.Floats(col)
			if err != nil {
				t.Fatal(err)
			}
			wantBins := legacyBinCounts(all, wantFloats, 10)
			gotBins, err := view.BinCounts(col, 10)
			if err != nil {
				t.Fatalf("%s: view BinCounts(%s): %v", label, col, err)
			}
			if !reflect.DeepEqual(gotBins, wantBins) {
				t.Fatalf("%s: BinCounts(%s) mismatch:\n  reference  %v\n  vectorized %v", label, col, wantBins, gotBins)
			}
		}

		// Filter and CountWhere ride the same kernels; check them against the
		// reference too.
		filtered, err := tab.Filter(pred)
		if err != nil {
			t.Fatalf("%s: Filter: %v", label, err)
		}
		if filtered.NumRows() != len(wantIdx) {
			t.Fatalf("%s: Filter rows = %d, reference %d", label, filtered.NumRows(), len(wantIdx))
		}
		n, err := tab.CountWhere(pred)
		if err != nil {
			t.Fatalf("%s: CountWhere: %v", label, err)
		}
		if n != len(wantIdx) {
			t.Fatalf("%s: CountWhere = %d, reference %d", label, n, len(wantIdx))
		}
	}
}

// TestWhereShortCircuitErrorParity pins the combinator error semantics to
// the row-at-a-time reference: a term no row would reach must not be
// compiled, so a dead term with a bad column stays harmless, while a
// reachable bad term errors in both paths.
func TestWhereShortCircuitErrorParity(t *testing.T) {
	tab := randomTable(rand.New(rand.NewSource(17)))
	bad := Equals{Column: "no_such_column", Value: "x"}
	cases := []struct {
		name string
		pred Predicate
	}{
		{"and dead term", And{Terms: []Predicate{Equals{Column: "color", Value: "absent"}, bad}}},
		{"and reachable bad term", And{Terms: []Predicate{bad, Equals{Column: "color", Value: "red"}}}},
		{"or saturated", Or{Terms: []Predicate{Not{Inner: Equals{Column: "color", Value: "absent"}}, bad}}},
		{"or reachable bad term", Or{Terms: []Predicate{bad}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantIdx, wantErr := referenceIndices(tab, tc.pred)
			sel, gotErr := tab.Where(tc.pred)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("error mismatch: reference %v, vectorized %v", wantErr, gotErr)
			}
			if wantErr != nil {
				return
			}
			if sel.Count() != len(wantIdx) {
				t.Errorf("count = %d, reference %d", sel.Count(), len(wantIdx))
			}
		})
	}
}

func TestSelectionAlgebra(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130} {
		full := FullSelection(n)
		empty := EmptySelection(n)
		if full.Count() != n || empty.Count() != 0 {
			t.Fatalf("n=%d: full=%d empty=%d", n, full.Count(), empty.Count())
		}
		if got := full.Not().Count(); got != 0 {
			t.Fatalf("n=%d: not(full) has %d bits", n, got)
		}
		if got := empty.Not().Count(); got != n {
			t.Fatalf("n=%d: not(empty) has %d bits", n, got)
		}
		if got := full.And(empty).Count(); got != 0 {
			t.Fatalf("n=%d: full∧empty has %d bits", n, got)
		}
		if got := full.Or(empty).Count(); got != n {
			t.Fatalf("n=%d: full∨empty has %d bits", n, got)
		}
		// Double complement restores the original, including the tail word.
		if n > 0 {
			rng := rand.New(rand.NewSource(int64(n)))
			s := newSelection(n)
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					s.setBit(i)
				}
			}
			s.recount()
			back := s.Not().Not()
			if !reflect.DeepEqual(back.Indices(), s.Indices()) {
				t.Fatalf("n=%d: ¬¬s != s", n)
			}
		}
	}
}

func TestSelectionCacheSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tab := randomTable(rng)
	cache := NewSelectionCache(tab)

	p := And{Terms: []Predicate{
		Equals{Column: "color", Value: "red"},
		GreaterThan{Column: "score", Threshold: 0},
	}}
	first, err := cache.Where(p)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cache.Where(p)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("identical predicates should share one cached Selection")
	}

	// Semantically equal In predicates — different value order, constructor
	// or literal — must hit the same cache entry.
	a, err := cache.Where(NewIn("color", "red", "blue"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := cache.Where(In{Column: "color", Values: []string{"blue", "red"}})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("semantically equal In predicates should share one cached Selection")
	}

	hits, partial, misses := cache.Stats()
	if hits != 2 || misses != 2 {
		t.Errorf("Stats() = %d hits, %d misses; want 2, 2", hits, misses)
	}
	if partial != 0 {
		t.Errorf("Stats() partial hits = %d, want 0 (no conjunction prefixes queried)", partial)
	}
	if cache.Len() != 2 {
		t.Errorf("Len() = %d, want 2", cache.Len())
	}

	// The cached result must still be correct.
	wantIdx, err := referenceIndices(tab, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := second.Indices(); !reflect.DeepEqual(got, wantIdx) && !(len(got) == 0 && len(wantIdx) == 0) {
		t.Errorf("cached selection indices mismatch: %v vs %v", got, wantIdx)
	}
}

func TestSelectionCacheCapBounds(t *testing.T) {
	tab := randomTable(rand.New(rand.NewSource(3)))
	cache := NewSelectionCacheCap(tab, 4)
	for i := 0; i < 32; i++ {
		if _, err := cache.Where(GreaterThan{Column: "score", Threshold: float64(i)}); err != nil {
			t.Fatal(err)
		}
		if cache.Len() > 4 {
			t.Fatalf("cache grew to %d entries, cap is 4", cache.Len())
		}
	}
}

func TestViewMaterializeRoundTrip(t *testing.T) {
	tab := randomTable(rand.New(rand.NewSource(5)))
	p := Or{Terms: []Predicate{
		Equals{Column: "flag", Value: "true"},
		Range{Column: "level", Low: -5, High: 5},
	}}
	view, err := tab.View(p)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := view.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	want, err := tab.Filter(p)
	if err != nil {
		t.Fatal(err)
	}
	if mat.NumRows() != want.NumRows() {
		t.Fatalf("Materialize rows = %d, Filter rows = %d", mat.NumRows(), want.NumRows())
	}
	ms, err := mat.Strings("color")
	if err != nil {
		t.Fatal(err)
	}
	ws, err := want.Strings("color")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ms, ws) {
		t.Error("Materialize and Filter disagree on row content")
	}
}
