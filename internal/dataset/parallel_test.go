package dataset

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// This file is the differential test bed for the morsel-parallel execution
// layer: for random tables spanning the morsel and word boundaries (1 row to
// 200k rows) and random predicate trees over all seven predicate types, every
// parallel kernel must be bit-identical — same bitmap words, same counts,
// same aggregation outputs, same float order — to the sequential reference (a
// 1-worker pool runs the identical kernel bodies on the calling goroutine).

// randomSizedTable is randomTable with a caller-chosen row count, so the
// parallel tests can aim at morsel boundaries instead of word boundaries.
func randomSizedTable(rng *rand.Rand, rows int) *Table {
	cats := []string{"red", "green", "blue", "violet"}
	strs := make([]string, rows)
	bools := make([]bool, rows)
	floats := make([]float64, rows)
	ints := make([]int64, rows)
	for i := 0; i < rows; i++ {
		strs[i] = cats[rng.Intn(len(cats))]
		bools[i] = rng.Intn(2) == 0
		floats[i] = rng.NormFloat64() * 10
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

// parallelTestSizes spans the cutoff and alignment edge cases: sub-word,
// word-boundary, exactly one morsel, just past one morsel, several morsels,
// and a large non-aligned size.
func parallelTestSizes(rng *rand.Rand) []int {
	sizes := []int{1, 63, 64, 65, morselRows - 1, morselRows, morselRows + 1, 3 * morselRows}
	sizes = append(sizes, 1+rng.Intn(200_000), 1+rng.Intn(200_000))
	return sizes
}

// sameSelection asserts two selections are bit-identical: same span, same
// cached count, same words.
func sameSelection(t *testing.T, ctx string, want, got *Selection) {
	t.Helper()
	if want.n != got.n || want.count != got.count {
		t.Fatalf("%s: span/count differ: want %d/%d, got %d/%d", ctx, want.n, want.count, got.n, got.count)
	}
	if !reflect.DeepEqual(want.words, got.words) {
		t.Fatalf("%s: bitmap words differ", ctx)
	}
}

// TestParallelMatchesSequential is the property test of the parallel engine:
// across pool sizes 1, 2 and 8, Where and every view aggregation over random
// tables and random predicate trees must be bit-identical to the 1-worker
// sequential reference.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	seqPool := NewPool(1)
	defer seqPool.Close()
	pools := []*Pool{NewPool(2), NewPool(8)}
	defer pools[0].Close()
	defer pools[1].Close()

	for _, rows := range parallelTestSizes(rng) {
		tab := randomSizedTable(rng, rows)
		for trial := 0; trial < 4; trial++ {
			pred := randomPredicate(rng, 2)
			ctx := fmt.Sprintf("rows=%d trial=%d pred=%s", rows, trial, pred.Describe())

			tab.SetPool(seqPool)
			wantSel, wantErr := tab.Where(pred)
			var wantCounts, wantBins []int
			var wantGroups []GroupCount
			var wantFloats, wantLevels []float64
			if wantErr == nil {
				view := View{table: tab, sel: wantSel}
				wantCounts, _ = view.CountsFor("color", []string{"red", "green", "blue", "violet"})
				wantGroups, _ = view.GroupBy("color")
				wantBins, _ = view.BinCounts("score", 10)
				wantFloats, _ = view.Floats("score")
				wantLevels, _ = view.Floats("level")
			}

			for _, pool := range pools {
				tab.SetPool(pool)
				gotSel, gotErr := tab.Where(pred)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s: error parity broke: sequential %v, %d workers %v",
						ctx, wantErr, pool.Workers(), gotErr)
				}
				if wantErr != nil {
					continue
				}
				sameSelection(t, fmt.Sprintf("%s workers=%d", ctx, pool.Workers()), wantSel, gotSel)

				view := View{table: tab, sel: gotSel}
				gotCounts, err := view.CountsFor("color", []string{"red", "green", "blue", "violet"})
				if err != nil || !reflect.DeepEqual(wantCounts, gotCounts) {
					t.Fatalf("%s workers=%d: CountsFor %v (err %v), want %v", ctx, pool.Workers(), gotCounts, err, wantCounts)
				}
				gotGroups, err := view.GroupBy("color")
				if err != nil || !reflect.DeepEqual(wantGroups, gotGroups) {
					t.Fatalf("%s workers=%d: GroupBy %v (err %v), want %v", ctx, pool.Workers(), gotGroups, err, wantGroups)
				}
				gotBins, err := view.BinCounts("score", 10)
				if err != nil || !reflect.DeepEqual(wantBins, gotBins) {
					t.Fatalf("%s workers=%d: BinCounts %v (err %v), want %v", ctx, pool.Workers(), gotBins, err, wantBins)
				}
				gotFloats, err := view.Floats("score")
				if err != nil || !reflect.DeepEqual(wantFloats, gotFloats) {
					t.Fatalf("%s workers=%d: Floats differ (err %v)", ctx, pool.Workers(), err)
				}
				gotLevels, err := view.Floats("level")
				if err != nil || !reflect.DeepEqual(wantLevels, gotLevels) {
					t.Fatalf("%s workers=%d: Floats of the int column differ (err %v)", ctx, pool.Workers(), err)
				}
			}
		}
	}
}

// TestParallelSelectionAlgebra checks the parallel word-range And/Or/Not
// against the sequential reference on multi-morsel bitmaps, including the
// unaligned tail.
func TestParallelSelectionAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seqPool := NewPool(1)
	defer seqPool.Close()
	parPool := NewPool(8)
	defer parPool.Close()

	for _, rows := range []int{morselRows, 2*morselRows + 17, 100_003} {
		a := newSelection(rows)
		b := newSelection(rows)
		for i := 0; i < rows; i++ {
			if rng.Intn(2) == 0 {
				a.setBit(i)
			}
			if rng.Intn(3) == 0 {
				b.setBit(i)
			}
		}
		a.recount()
		b.recount()
		sameSelection(t, "and", a.andWith(b, seqPool), a.andWith(b, parPool))
		sameSelection(t, "or", a.orWith(b, seqPool), a.orWith(b, parPool))
		sameSelection(t, "not", a.notWith(seqPool), a.notWith(parPool))
		if got, want := a.notWith(parPool).Count(), rows-a.Count(); got != want {
			t.Fatalf("not count %d, want %d", got, want)
		}
	}
}

// TestPoolRunCoversEveryIndex checks the work-distribution contract: Run
// executes fn exactly once per index, for index counts around the worker
// count and far above it.
func TestPoolRunCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			var mu sync.Mutex
			seen := make([]int, n)
			p.Run(n, func(i int) {
				mu.Lock()
				seen[i]++
				mu.Unlock()
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d executed %d times", workers, n, i, c)
				}
			}
		}
		p.Close()
	}
}

// TestPoolRunPropagatesPanic ensures a panic inside a helper resurfaces on
// the calling goroutine instead of crashing a worker.
func TestPoolRunPropagatesPanic(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic did not propagate out of Run")
		}
	}()
	p.Run(64, func(i int) {
		if i == 13 {
			panic("boom")
		}
	})
}

// TestPoolStatsCounters checks the observable counters: small inputs hit the
// sequential cutoff, multi-morsel inputs process morsels, and Workers reports
// the configured parallelism (GOMAXPROCS when sized automatically).
func TestPoolStatsCounters(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	rng := rand.New(rand.NewSource(9))

	small := randomSizedTable(rng, 100)
	small.SetPool(p)
	if _, err := small.Where(Equals{Column: "color", Value: "red"}); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.SequentialCutoffHits == 0 {
		t.Errorf("sub-morsel input did not count a cutoff hit: %+v", s)
	}

	big := randomSizedTable(rng, 2*morselRows+5)
	big.SetPool(p)
	if _, err := big.Where(Equals{Column: "color", Value: "red"}); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.MorselsProcessed < 3 {
		t.Errorf("multi-morsel input processed %d morsels, want >= 3", s.MorselsProcessed)
	}
	auto := NewPool(0)
	if auto.Workers() < 1 {
		t.Error("auto-sized pool has no workers")
	}
	auto.Close()
	if p.Stats().Workers != 2 {
		t.Errorf("Workers = %d, want 2", p.Stats().Workers)
	}
}

// TestSelectionAlgebraInheritsTablePool: selections compiled by a pinned
// table carry that pool, so public And/Or/Not on them (the holdout
// complement path uses Selection.Not) stay pinned instead of escaping to the
// process-wide DefaultPool.
func TestSelectionAlgebraInheritsTablePool(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	tab := randomSizedTable(rand.New(rand.NewSource(21)), 2*morselRows)
	tab.SetPool(p)
	sel, err := tab.Where(Equals{Column: "color", Value: "red"})
	if err != nil {
		t.Fatal(err)
	}
	for name, derived := range map[string]*Selection{
		"where": sel,
		"not":   sel.Not(),
		"and":   sel.And(sel.Not()),
		"or":    sel.Or(sel),
		"full":  mustWhere(t, tab, nil),
	} {
		if derived.execPool() != p {
			t.Errorf("%s selection did not inherit the table's pool", name)
		}
	}
	before := p.Stats().MorselsProcessed
	sel.Not()
	if after := p.Stats().MorselsProcessed; after <= before {
		t.Errorf("Not on a pinned multi-morsel selection did not run on the pinned pool (morsels %d -> %d)", before, after)
	}
}

func mustWhere(t *testing.T, tab *Table, p Predicate) *Selection {
	t.Helper()
	sel, err := tab.Where(p)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// TestSetPoolPropagatesToDerivedTables: Select (and with it holdout splits,
// samples, materialized views) inherits the parent table's pinned pool.
func TestSetPoolPropagatesToDerivedTables(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	tab := randomSizedTable(rand.New(rand.NewSource(3)), 50)
	tab.SetPool(p)
	sub, err := tab.Select([]int{0, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sub.execPool() != p {
		t.Error("Select did not inherit the parent's pool")
	}
	tab.SetPool(nil)
	if tab.execPool() != DefaultPool() {
		t.Error("SetPool(nil) did not restore the default pool")
	}
}
