package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"sync"
	"testing"

	"math/bits"
)

// This file is the differential test bed for the tuned kernel generation
// (kernels.go) and the selection arena (arena.go). The contract under test:
// for every predicate type, every dictionary width, every row count around
// the word boundaries and up to 200k, and pools 1/2/8, Table.Where (tuned,
// arena-backed) produces a Selection whose bitmap WORDS — not just whose
// indices — are identical to Table.WhereGeneric (the PR-5 kernels) and whose
// rows are identical to the row-at-a-time Matches reference.

// kernelTable builds a table shaped to exercise every kernel
// specialization: a narrow categorical (10 values → the 256-bit In lookup
// table), a wide categorical (up to 300 values → the per-code bitset once
// rows push the dictionary past 256), bools, floats with NaNs sprinkled in
// (comparisons must stay false), and ints beyond 2^53 is not needed — the
// generic kernel converts through float64 and the tuned kernel must match
// that exactly, which the shared conversion guarantees.
func kernelTable(rng *rand.Rand, rows int) *Table {
	cats := make([]string, 10)
	for i := range cats {
		cats[i] = fmt.Sprintf("c%d", i)
	}
	strs := make([]string, rows)
	wide := make([]string, rows)
	bools := make([]bool, rows)
	floats := make([]float64, rows)
	ints := make([]int64, rows)
	for i := 0; i < rows; i++ {
		strs[i] = cats[rng.Intn(len(cats))]
		wide[i] = fmt.Sprintf("w%03d", rng.Intn(300))
		bools[i] = rng.Intn(2) == 0
		if rng.Intn(20) == 0 {
			floats[i] = math.NaN()
		} else {
			floats[i] = math.Round(rng.NormFloat64()*100) / 10
		}
		ints[i] = int64(rng.Intn(40) - 20)
	}
	tab, err := NewTable(
		NewCategoricalColumn("cat", strs),
		NewCategoricalColumn("wide", wide),
		NewBoolColumn("flag", bools),
		NewFloatColumn("score", floats),
		NewIntColumn("level", ints),
	)
	if err != nil {
		panic(err)
	}
	return tab
}

// kernelPredicates is the fixed predicate battery: all seven types, missing
// values, bool columns addressed categorically, empty combinators, NaN-laden
// numeric ranges, and both In dictionary widths.
func kernelPredicates() []Predicate {
	return []Predicate{
		nil,
		Equals{Column: "cat", Value: "c3"},
		Equals{Column: "cat", Value: "absent"},
		Equals{Column: "wide", Value: "w123"},
		Equals{Column: "flag", Value: "true"},
		Equals{Column: "flag", Value: "false"},
		Equals{Column: "flag", Value: "junk"},
		NewIn("cat", "c1", "c4", "c9", "absent"),
		In{Column: "wide", Values: []string{"w000", "w123", "w299", "w777"}},
		NewIn("flag", "true", "false"),
		NewIn("flag", "false"),
		In{Column: "cat", Values: []string{"absent"}},
		Range{Column: "score", Low: -5, High: 5},
		Range{Column: "level", Low: -3, High: 40},
		GreaterThan{Column: "score", Threshold: 0},
		GreaterThan{Column: "level", Threshold: -2},
		Not{Inner: GreaterThan{Column: "score", Threshold: 1}},
		And{Terms: []Predicate{Equals{Column: "cat", Value: "c2"}, Range{Column: "score", Low: -10, High: 10}}},
		And{},
		Or{Terms: []Predicate{
			Equals{Column: "flag", Value: "true"},
			GreaterThan{Column: "level", Threshold: 5},
			Not{Inner: NewIn("cat", "c1", "c2", "c3")},
		}},
		Or{},
	}
}

// requireSameWords fails unless two selections are bitmap-word identical —
// the strongest equality the kernels can be held to (index equality would
// not catch a dirty tail word).
func requireSameWords(t *testing.T, label string, tuned, generic *Selection) {
	t.Helper()
	if tuned.n != generic.n || len(tuned.words) != len(generic.words) {
		t.Fatalf("%s: span mismatch: tuned %d rows/%d words, generic %d rows/%d words",
			label, tuned.n, len(tuned.words), generic.n, len(generic.words))
	}
	if tuned.count != generic.count {
		t.Fatalf("%s: count mismatch: tuned %d, generic %d", label, tuned.count, generic.count)
	}
	for i := range tuned.words {
		if tuned.words[i] != generic.words[i] {
			t.Fatalf("%s: word %d mismatch: tuned %064b generic %064b",
				label, i, tuned.words[i], generic.words[i])
		}
	}
	// Both must hold the zero-tail invariant.
	pop := 0
	for _, w := range tuned.words {
		pop += bits.OnesCount64(w)
	}
	if pop != tuned.count {
		t.Fatalf("%s: cached count %d != popcount %d", label, tuned.count, pop)
	}
}

// TestTunedKernelsBitIdentical is the differential property test of the
// tuned kernels: Where vs WhereGeneric (word-identical) vs Matches
// (row-identical) across row counts spanning 1 to 200k, with pools 1/2/8
// and the table's arena engaged so recycled words are part of what is
// being verified.
func TestTunedKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sizes := []int{1, 3, 63, 64, 65, 130, 1000, 16384, 16385}
	if !testing.Short() {
		sizes = append(sizes, 200000)
	}
	pools := []*Pool{NewPool(1), NewPool(2), NewPool(8)}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	for _, rows := range sizes {
		tab := kernelTable(rng, rows)
		tab.SetArena(NewWordArena(rows))
		// The reference is pool-independent; compute it once per predicate.
		for pi, pred := range kernelPredicates() {
			var wantIdx []int
			if pred == nil {
				for i := 0; i < rows; i++ {
					wantIdx = append(wantIdx, i)
				}
			} else {
				var err error
				wantIdx, err = referenceIndices(tab, pred)
				if err != nil {
					t.Fatalf("rows=%d pred=%d: reference: %v", rows, pi, err)
				}
			}
			for _, p := range pools {
				tab.SetPool(p)
				label := fmt.Sprintf("rows=%d pred=%d workers=%d", rows, pi, p.Workers())
				tuned, err := tab.Where(pred)
				if err != nil {
					t.Fatalf("%s: Where: %v", label, err)
				}
				generic, err := tab.WhereGeneric(pred)
				if err != nil {
					t.Fatalf("%s: WhereGeneric: %v", label, err)
				}
				requireSameWords(t, label, tuned, generic)
				if got := tuned.Indices(); !reflect.DeepEqual(got, wantIdx) && !(len(got) == 0 && len(wantIdx) == 0) {
					t.Fatalf("%s: indices diverge from Matches reference", label)
				}
				// Exercise recycling inside the differential loop: the next
				// predicate's kernels reuse these words.
				tuned.Release()
				generic.Release()
			}
		}
	}
}

// TestPackedKernelsEveryTailShape runs every window length from 0 to 200 rows
// — every tail length mod 8 and mod 64 the packed main loop and the per-row
// tail loop can split a window into — against values and bounds at the edges
// of float comparison: NaN, both infinities, both zeros, the smallest
// denormal, and int64 values no float64 represents. Where must stay
// word-identical to WhereGeneric and row-identical to Matches.
func TestPackedKernelsEveryTailShape(t *testing.T) {
	denormal := math.SmallestNonzeroFloat64
	edges := []float64{math.NaN(), math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1),
		denormal, -denormal, 1, -1, math.MaxFloat64, float64(math.MaxInt64)}
	edgeInts := []int64{math.MinInt64, math.MaxInt64, math.MaxInt64 - 1, 1<<53 + 1, 0, 1, -1}
	var preds []Predicate
	for _, column := range []string{"score", "level"} {
		for _, a := range edges {
			preds = append(preds, GreaterThan{Column: column, Threshold: a})
			for _, b := range edges {
				preds = append(preds, Range{Column: column, Low: a, High: b})
			}
		}
	}
	preds = append(preds, kernelPredicates()...)
	rng := rand.New(rand.NewSource(59))
	for rows := 0; rows <= 200; rows++ {
		tab := kernelTable(rng, rows)
		// Overwrite a third of the numeric cells with edge values (the
		// vectors are the table's own: nothing has been shared yet).
		score, _ := tab.Column("score")
		level, _ := tab.Column("level")
		for i := 0; i < rows; i++ {
			if rng.Intn(3) == 0 {
				score.floats[i] = edges[rng.Intn(len(edges))]
				level.ints[i] = edgeInts[rng.Intn(len(edgeInts))]
			}
		}
		for pi, pred := range preds {
			label := fmt.Sprintf("rows=%d pred=%d", rows, pi)
			tuned, err := tab.Where(pred)
			if err != nil {
				t.Fatalf("%s: Where: %v", label, err)
			}
			generic, err := tab.WhereGeneric(pred)
			if err != nil {
				t.Fatalf("%s: WhereGeneric: %v", label, err)
			}
			requireSameWords(t, label, tuned, generic)
			if pred == nil {
				continue
			}
			wantIdx, err := referenceIndices(tab, pred)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			if got := tuned.Indices(); !reflect.DeepEqual(got, wantIdx) && !(len(got) == 0 && len(wantIdx) == 0) {
				t.Fatalf("%s: indices diverge from Matches reference", label)
			}
		}
	}
}

// TestTunedKernelErrorParity pins the tuned leaves' error behavior to the
// generic kernels and the reference: same missing-column and type-mismatch
// outcomes on every path.
func TestTunedKernelErrorParity(t *testing.T) {
	tab := kernelTable(rand.New(rand.NewSource(31)), 100)
	bad := []Predicate{
		Equals{Column: "missing", Value: "x"},
		Equals{Column: "score", Value: "x"},
		In{Column: "level", Values: []string{"1"}},
		Range{Column: "cat", Low: 0, High: 1},
		GreaterThan{Column: "flag", Threshold: 0},
		Not{},
	}
	for i, pred := range bad {
		_, tunedErr := tab.Where(pred)
		_, genErr := tab.WhereGeneric(pred)
		if (tunedErr == nil) != (genErr == nil) {
			t.Errorf("pred %d: tuned err %v, generic err %v", i, tunedErr, genErr)
		}
		if pred == (Predicate)(Not{}) {
			// Matches would dereference the nil inner; the compiled paths
			// must reject it instead, which the parity check above covers.
			if tunedErr == nil {
				t.Errorf("pred %d: nil-inner Not compiled without error", i)
			}
			continue
		}
		_, refErr := referenceIndices(tab, pred)
		if (refErr == nil) != (tunedErr == nil) {
			t.Errorf("pred %d: reference err %v, tuned err %v", i, refErr, tunedErr)
		}
	}
}

// TestArenaSteadyStateZeroFresh asserts the arena's whole point: once warm,
// a compile→release loop issues only recycled selections — the fresh
// counter stops moving. GC is disabled around the loop because a collection
// may legitimately drop sync.Pool contents.
func TestArenaSteadyStateZeroFresh(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts by design; zero-fresh cannot hold")
	}
	tab := kernelTable(rand.New(rand.NewSource(37)), 20000)
	arena := NewWordArena(tab.NumRows())
	tab.SetArena(arena)
	pred := And{Terms: []Predicate{
		Equals{Column: "flag", Value: "true"},
		Range{Column: "level", Low: -10, High: 10},
	}}
	run := func() {
		sel, err := tab.Where(pred)
		if err != nil {
			t.Fatal(err)
		}
		sel.Release()
	}
	for i := 0; i < 5; i++ {
		run() // warm the pool
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := arena.Stats()
	for i := 0; i < 100; i++ {
		run()
	}
	after := arena.Stats()
	if after.FreshSelections != before.FreshSelections {
		t.Errorf("steady state allocated %d fresh selections, want 0 (stats: %+v)",
			after.FreshSelections-before.FreshSelections, after)
	}
	if after.RecycledSelections <= before.RecycledSelections {
		t.Errorf("steady state recycled nothing (stats: %+v)", after)
	}
}

// TestArenaReleaseSafety covers the release contract edge cases: double
// release no-ops, heap selections no-op, detach makes Release permanent
// no-op, geometry-mismatched tables fall back to the heap.
func TestArenaReleaseSafety(t *testing.T) {
	tab := kernelTable(rand.New(rand.NewSource(41)), 130)
	arena := NewWordArena(tab.NumRows())
	tab.SetArena(arena)

	sel, err := tab.Where(GreaterThan{Column: "score", Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if sel.arena != arena {
		t.Fatal("compiled selection not arena-backed")
	}
	sel.Release()
	sel.Release() // second release must be a no-op
	if got := arena.Stats().ReturnedSelections; got != 1 {
		t.Errorf("returned = %d after double release, want 1", got)
	}

	// Detached selections never return.
	sel2, err := tab.Where(GreaterThan{Column: "score", Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	sel2.detach()
	sel2.Release()
	if got := arena.Stats().ReturnedSelections; got != 1 {
		t.Errorf("returned = %d after detached release, want 1", got)
	}

	// Heap selections tolerate Release, and so does nil.
	FullSelection(10).Release()
	(*Selection)(nil).Release()

	// A table with a different row count ignores a mismatched arena.
	other := kernelTable(rand.New(rand.NewSource(43)), 64)
	other.SetArena(arena)
	sel3, err := other.Where(GreaterThan{Column: "score", Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if sel3.arena != nil {
		t.Error("geometry-mismatched arena leaked into a selection")
	}
}

// TestArenaCachedSelectionsDetached asserts a SelectionCache never hands out
// recyclable bitmaps: a cached selection survives any number of Releases by
// other holders of the same arena.
func TestArenaCachedSelectionsDetached(t *testing.T) {
	tab := kernelTable(rand.New(rand.NewSource(47)), 1000)
	tab.SetArena(NewWordArena(tab.NumRows()))
	cache := NewSelectionCache(tab)
	p := Range{Column: "score", Low: -2, High: 2}
	cached, err := cache.Where(p)
	if err != nil {
		t.Fatal(err)
	}
	if cached.arena != nil {
		t.Fatal("cached selection still arena-backed")
	}
	want := append([]int(nil), cached.Indices()...)
	// Churn the arena hard; if the cached bitmap were recyclable its words
	// would be stolen and zeroed.
	for i := 0; i < 50; i++ {
		sel, err := tab.Where(GreaterThan{Column: "level", Threshold: float64(i%7 - 3)})
		if err != nil {
			t.Fatal(err)
		}
		sel.Release()
	}
	if got := cached.Indices(); !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
		t.Fatal("cached selection mutated by arena churn")
	}
}

// TestArenaConcurrentSessions hammers one arena from 8 goroutines compiling,
// combining and releasing concurrently — the -race configuration of the
// shared-arena contract.
func TestArenaConcurrentSessions(t *testing.T) {
	tab := kernelTable(rand.New(rand.NewSource(53)), 8000)
	arena := NewWordArena(tab.NumRows())
	tab.SetArena(arena)
	preds := kernelPredicates()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				pred := preds[(g*7+i)%len(preds)]
				sel, err := tab.Where(pred)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
				not := sel.Not()
				if sel.Count()+not.Count() != tab.NumRows() {
					errs <- fmt.Errorf("goroutine %d: count algebra broke: %d + %d != %d",
						g, sel.Count(), not.Count(), tab.NumRows())
					return
				}
				not.Release()
				sel.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := arena.Stats()
	if st.ReturnedSelections == 0 || st.RecycledSelections == 0 {
		t.Errorf("concurrent churn never recycled: %+v", st)
	}
}

var (
	benchSinkInt    int
	benchSinkFloats []float64
)

// BenchmarkFillKernels times each leaf kernel in isolation over one
// million-row window on the calling goroutine (run it with -cpu 1): the
// ns/row the packed main loops are judged by.
func BenchmarkFillKernels(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(61))
	floats := make([]float64, n)
	ints := make([]int64, n)
	codes := make([]uint32, n)
	bytes := make([]uint8, n)
	for i := 0; i < n; i++ {
		floats[i] = rng.Float64() * 100
		ints[i] = int64(rng.Intn(100))
		codes[i] = uint32(rng.Intn(12))
		bytes[i] = uint8(ints[i])
	}
	dst := make([]uint64, n/64)
	lut := [4]uint64{0b101101}
	set := []uint64{0b101101}
	for _, k := range []struct {
		name string
		fill func() int
	}{
		{"RangeFloats", func() int { return fillRangeFloats(dst, floats, 20, 30) }},
		{"RangeInts", func() int { return fillRangeInts(dst, ints, 20, 30) }},
		{"GtFloats", func() int { return fillGtFloats(dst, floats, 90) }},
		{"GtInts", func() int { return fillGtInts(dst, ints, 90) }},
		{"EqCodes", func() int { return fillEqCodes(dst, codes, 3) }},
		{"RangeBytes", func() int { return fillRangeBytes(dst, bytes, 20, 30) }},
		{"InSmall", func() int { return fillInSmall(dst, codes, &lut) }},
		{"InWide", func() int { return fillInWide(dst, codes, set) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSinkInt = k.fill()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
		})
	}
}

// BenchmarkViewFloats times the numeric gather behind compare_means over a
// million rows, a tenth of them selected, for both numeric column types.
func BenchmarkViewFloats(b *testing.B) {
	tab := randomSizedTable(rand.New(rand.NewSource(67)), 1<<20)
	v, err := tab.View(Range{Column: "score", Low: -1.3, High: 1.3})
	if err != nil {
		b.Fatal(err)
	}
	for _, column := range []string{"score", "level"} {
		b.Run(column, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if benchSinkFloats, err = v.Floats(column); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
