package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// This file is the differential test bed for the vectorized execution path:
// for randomized tables and randomized predicate trees covering all seven
// predicate types over every column type, the bitmap kernels (Table.Where)
// and the zero-copy View reads must agree exactly with the row-at-a-time
// reference (matchRow) and with reads over a materialized sub-table.

// setBit marks row i as selected in a selection a test builds by hand.
func (s *Selection) setBit(i int) { s.words[i/64] |= uint64(1) << (i % 64) }

// recount recomputes the cached population count after setBit writes.
func (s *Selection) recount() {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	s.count = c
}

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

// matchRow evaluates the predicate on row i alone: the row-at-a-time
// reference every compiled Selection is held to. It reads cells through the
// public accessors, so a missing column or a type mismatch errors as Where
// does; And and Or stop at the first term that decides the row. A nil
// predicate is every row; a nil term or a nil Not inner is an error.
func matchRow(t *Table, p Predicate, i int) (bool, error) {
	switch q := p.(type) {
	case nil:
		return true, nil
	case Equals:
		v, err := cell(t, q.Column, i, (*Column).StringAt)
		return v == q.Value, err
	case In:
		v, err := cell(t, q.Column, i, (*Column).StringAt)
		return slices.Contains(q.Values, v), err
	case Range:
		v, err := cell(t, q.Column, i, floatCell)
		return v >= q.Low && v < q.High, err
	case GreaterThan:
		v, err := cell(t, q.Column, i, floatCell)
		return v > q.Threshold, err
	case Not:
		if q.Inner == nil {
			return false, errors.New("not with a nil inner predicate")
		}
		ok, err := matchRow(t, q.Inner, i)
		return !ok, err
	case And:
		return matchTerms(t, q.Terms, i, false)
	case Or:
		return matchTerms(t, q.Terms, i, true)
	}
	return false, fmt.Errorf("cannot evaluate predicate type %T", p)
}

// matchTerms evaluates an And (decisive false) or an Or (decisive true): the
// first term whose outcome is decisive decides the row.
func matchTerms(t *Table, terms []Predicate, i int, decisive bool) (bool, error) {
	if slices.Contains(terms, nil) {
		return false, errors.New("nil term")
	}
	for _, term := range terms {
		if ok, err := matchRow(t, term, i); err != nil || ok == decisive {
			return ok, err
		}
	}
	return !decisive, nil
}

// floatCell is the row-at-a-time read of a numeric cell: the value, or the
// type error Where reports for a non-numeric column.
func floatCell(c *Column, i int) (float64, error) {
	if c.Type != Float64 && c.Type != Int64 {
		return math.NaN(), fmt.Errorf("%w: %s is %s, not numeric", ErrTypeMismatch, c.Name, c.Type)
	}
	return c.floatAt(i), nil
}

// cell reads row i of the named column through one of Column's accessors.
func cell[V any](t *Table, column string, i int, read func(*Column, int) (V, error)) (V, error) {
	c, err := t.Column(column)
	if err != nil {
		var zero V
		return zero, err
	}
	return read(c, i)
}

// referenceSelection sets, row by row, the bits matchRow selects: what Where
// must return word for word, count and tail bits included.
func referenceSelection(t *Table, p Predicate) (*Selection, error) {
	sel := newSelection(t.NumRows())
	for i := 0; i < t.NumRows(); i++ {
		ok, err := matchRow(t, p, i)
		if err != nil {
			return nil, err
		}
		if ok {
			sel.setBit(i)
		}
	}
	sel.recount()
	return sel, nil
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

		want, wantErr := referenceSelection(tab, pred)
		sel, gotErr := tab.Where(pred)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: error mismatch: reference %v, vectorized %v", label, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		requireSameWords(t, label, sel, want)
		wantIdx := want.Indices()

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

		// Filter rides the same kernels; check it against the reference too.
		filtered, err := tab.Filter(pred)
		if err != nil {
			t.Fatalf("%s: Filter: %v", label, err)
		}
		if filtered.NumRows() != len(wantIdx) {
			t.Fatalf("%s: Filter rows = %d, reference %d", label, filtered.NumRows(), len(wantIdx))
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
			want, wantErr := referenceSelection(tab, tc.pred)
			sel, gotErr := tab.Where(tc.pred)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("error mismatch: reference %v, vectorized %v", wantErr, gotErr)
			}
			if wantErr != nil {
				return
			}
			requireSameWords(t, tc.name, sel, want)
		})
	}
}

// TestWhereRejectsNilTerms: a nil term of an And or an Or is a malformed
// predicate, not "every row" or "no term". Where, the selection cache and the
// reference reject it wherever it stands — first, last, and after a term
// that already decided every row. A nil predicate is still every row.
func TestWhereRejectsNilTerms(t *testing.T) {
	tab := randomTable(rand.New(rand.NewSource(19)))
	none := Equals{Column: "color", Value: "absent"}
	all := Not{Inner: none}
	for i, pred := range []Predicate{
		And{Terms: []Predicate{nil}},
		And{Terms: []Predicate{nil, all}},
		And{Terms: []Predicate{all, nil}},
		And{Terms: []Predicate{none, nil}},
		Or{Terms: []Predicate{nil}},
		Or{Terms: []Predicate{nil, none}},
		Or{Terms: []Predicate{none, nil}},
		Or{Terms: []Predicate{all, nil}},
		Not{Inner: And{Terms: []Predicate{all, nil}}},
		Not{},
	} {
		if sel, err := tab.Where(pred); err == nil {
			t.Errorf("predicate %d: Where selected %d of %d rows, want an error", i, sel.Count(), tab.NumRows())
		}
		if _, err := NewSelectionCache(tab).Where(pred); err == nil {
			t.Errorf("predicate %d: the selection cache compiled it", i)
		}
		if _, err := referenceSelection(tab, pred); err == nil {
			t.Errorf("predicate %d: the reference evaluated it", i)
		}
	}
	if sel, err := tab.Where(nil); err != nil || sel.Count() != tab.NumRows() {
		t.Errorf("nil predicate: %v, want all %d rows", err, tab.NumRows())
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
	want, err := referenceSelection(tab, p)
	if err != nil {
		t.Fatal(err)
	}
	requireSameWords(t, "cached selection", second, want)
}

// TestSelectionCacheFullRowsShared races the first Where(nil) of several
// caches over one table: every cache must return the one every-row
// selection, with every row set.
func TestSelectionCacheFullRowsShared(t *testing.T) {
	tab := randomTable(rand.New(rand.NewSource(5)))
	fulls := make([]*Selection, 8)
	var wg sync.WaitGroup
	for i := range fulls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fulls[i], _ = NewSelectionCacheCap(tab, 1).Where(nil)
		}(i)
	}
	wg.Wait()
	for i, sel := range fulls {
		if sel != fulls[0] {
			t.Fatalf("cache %d built its own full selection", i)
		}
	}
	requireSameWords(t, "full rows", fulls[0], FullSelection(tab.NumRows()))
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
