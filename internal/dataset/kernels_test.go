package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"math/bits"
)

// This file is the differential test bed for the predicate kernels
// (kernels.go) and the selection arena (arena.go). The contract under test:
// for every predicate type, every dictionary width, every row count around
// the word boundaries and up to 200k, and pools 1/2/8, Table.Where
// (arena-backed) produces a Selection whose bitmap WORDS — not just whose
// indices — are identical to the row-at-a-time reference, referenceSelection.

// kernelTable builds a table shaped to exercise every kernel
// specialization: a narrow categorical (10 values → byte codes and the
// 256-bit In lookup table), a wide categorical (up to 300 values → two-byte
// codes and the per-code bitset once rows push the dictionary past 256),
// bools, floats with NaNs sprinkled in (comparisons must stay false; the
// column stays wide) and ints of 40 values (byte-coded).
func kernelTable(rng *rand.Rand, rows int) *Table { return editedKernelTable(rng, rows, nil) }

// editedKernelTable is kernelTable with edit applied to its float and int
// rows before the columns are built.
func editedKernelTable(rng *rand.Rand, rows int, edit func(floats []float64, ints []int64)) *Table {
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
	if edit != nil {
		edit(floats, ints)
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
func requireSameWords(t *testing.T, label string, got, want *Selection) {
	t.Helper()
	if got.n != want.n || len(got.words) != len(want.words) {
		t.Fatalf("%s: span mismatch: got %d rows/%d words, want %d rows/%d words",
			label, got.n, len(got.words), want.n, len(want.words))
	}
	if got.count != want.count {
		t.Fatalf("%s: count mismatch: got %d, want %d", label, got.count, want.count)
	}
	for i := range got.words {
		if got.words[i] != want.words[i] {
			t.Fatalf("%s: word %d mismatch: got %064b want %064b",
				label, i, got.words[i], want.words[i])
		}
	}
	// Both must hold the zero-tail invariant.
	pop := 0
	for _, w := range got.words {
		pop += bits.OnesCount64(w)
	}
	if pop != got.count {
		t.Fatalf("%s: cached count %d != popcount %d", label, got.count, pop)
	}
}

// TestTunedKernelsBitIdentical is the differential property test of the
// kernels: Where vs the row-at-a-time reference, word for word, across row
// counts spanning 1 to 200k and every code width (widthTables), with pools
// 1/2/8 and the table's arena engaged so recycled words are part of what is
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
	tables, preds := widthTables(t, rng)
	for _, rows := range sizes {
		label := fmt.Sprintf("rows=%d", rows)
		tables[label], preds[label] = kernelTable(rng, rows), kernelPredicates()
	}
	for label, tab := range tables {
		tab.SetArena(NewWordArena(tab.NumRows()))
		// The reference is pool-independent; compute it once per predicate.
		for pi, pred := range preds[label] {
			want, err := referenceSelection(tab, pred)
			if err != nil {
				t.Fatalf("%s pred=%d: reference: %v", label, pi, err)
			}
			for _, p := range pools {
				tab.SetPool(p)
				ctx := fmt.Sprintf("%s pred=%d workers=%d", label, pi, p.Workers())
				got, err := tab.Where(pred)
				if err != nil {
					t.Fatalf("%s: Where: %v", ctx, err)
				}
				requireSameWords(t, ctx, got, want)
				// Exercise recycling inside the differential loop: the next
				// predicate's kernels reuse these words.
				got.Release()
			}
		}
	}
}

// TestPackedKernelsEveryTailShape runs every window length from 0 to 200 rows
// — every tail length mod 8 and mod 64 the packed main loop and the per-row
// tail loop can split a window into — against values and bounds at the edges
// of float comparison: NaN, both infinities, both zeros, the smallest
// denormal, and int64 values no float64 represents. Where must stay
// word-identical to the row-at-a-time reference.
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
		// A third of the numeric cells hold edge values. Small tables without
		// a NaN store score as byte codes, the rest wide.
		tab := editedKernelTable(rng, rows, func(floats []float64, ints []int64) {
			for i := range floats {
				if rng.Intn(3) == 0 {
					floats[i] = edges[rng.Intn(len(edges))]
					ints[i] = edgeInts[rng.Intn(len(edgeInts))]
				}
			}
		})
		for pi, pred := range preds {
			label := fmt.Sprintf("rows=%d pred=%d", rows, pi)
			got, err := tab.Where(pred)
			if err != nil {
				t.Fatalf("%s: Where: %v", label, err)
			}
			want, err := referenceSelection(tab, pred)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			requireSameWords(t, label, got, want)
		}
	}
}

// widthTables returns, for every dictionary size at a code-width boundary —
// 255, 256 and 257 entries, then 65,535, 65,536 and 65,537 — a table whose
// categorical column "d" holds that many values (byte, two-byte and
// four-byte codes), the same rows gathered by Select, and "d" gathered
// through a join of a filtered left side; each with the predicates that run
// every code kernel on d: Equals, In through the lookup table or the per-code
// bitset, Not and And, over its first, last and middle values and an absent
// one.
func widthTables(t *testing.T, rng *rand.Rand) (tables map[string]*Table, preds map[string][]Predicate) {
	t.Helper()
	tables, preds = map[string]*Table{}, map[string][]Predicate{}
	for _, n := range []int{255, 256, 257, 65535, 65536, 65537} {
		rows := n + 700
		vals, keys := make([]string, rows), make([]string, rows)
		for i := range vals {
			k := i
			if i >= n {
				k = rng.Intn(n)
			}
			vals[i], keys[i] = fmt.Sprintf("v%05d", k), []string{"a", "b", "c"}[rng.Intn(3)]
		}
		rng.Shuffle(rows, func(a, b int) { vals[a], vals[b] = vals[b], vals[a] })
		tab, err := NewTable(NewCategoricalColumn("d", vals), NewCategoricalColumn("k", keys))
		if err != nil {
			t.Fatal(err)
		}
		picks := rng.Perm(rows)[:rows/2]
		sub, err := tab.Select(picks)
		if err != nil {
			t.Fatal(err)
		}
		dim, err := NewTable(NewCategoricalColumn("k", []string{"a", "b", "c"}), NewIntColumn("w", []int64{1, 2, 3}))
		if err != nil {
			t.Fatal(err)
		}
		left, _ := tab.View(NewIn("k", "a", "b"))
		right, _ := dim.View(nil)
		joined, err := HashJoin(left, right, "k", "k", "r_")
		if err != nil {
			t.Fatal(err)
		}
		width := 1
		if n > 256 {
			width = 2
		}
		if n > 65536 {
			width = 4
		}
		for name, tab := range map[string]*Table{"table": tab, "select": sub, "join": joined} {
			label := fmt.Sprintf("dict=%d %s", n, name)
			if c, _ := tab.Column("d"); c.width != width {
				t.Fatalf("%s: d stored at %d bytes per code, want %d", label, c.width, width)
			}
			v := []string{"v00000", fmt.Sprintf("v%05d", n-1), fmt.Sprintf("v%05d", n/2), fmt.Sprintf("v%05d", n/3), "absent"}
			tables[label], preds[label] = tab, []Predicate{
				Equals{Column: "d", Value: v[0]},
				Equals{Column: "d", Value: v[1]},
				Equals{Column: "d", Value: v[4]},
				NewIn("d", v[0], v[1], v[2], v[4]),
				In{Column: "d", Values: v[4:]},
				Not{Inner: NewIn("d", v[2], v[3])},
				And{Terms: []Predicate{Not{Inner: Equals{Column: "d", Value: v[2]}}, NewIn("d", v[2], v[3], v[0])}},
				And{Terms: []Predicate{NewIn("d", v[:4]...), Equals{Column: "k", Value: "a"}}},
			}
		}
	}
	return tables, preds
}

// TestTunedKernelErrorParity pins the leaves' error behavior to the
// reference: the same missing-column, type-mismatch and nil-inner outcomes.
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
		_, err := tab.Where(pred)
		_, refErr := referenceSelection(tab, pred)
		if err == nil || refErr == nil {
			t.Errorf("pred %d: Where err %v, reference err %v; want both to fail", i, err, refErr)
		}
	}
}

// TestArenaSteadyStateZeroFresh asserts the arena's whole point: once warm,
// a compile→release loop issues only recycled selections — the fresh
// counter stops moving. GC is disabled before the warm-up because a
// collection may legitimately drop sync.Pool contents, and the test runs on
// one P because a selection Put on one P's private slot is invisible to a Get
// on another.
func TestArenaSteadyStateZeroFresh(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts by design; zero-fresh cannot hold")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
// release no-ops, heap selections no-op, geometry-mismatched tables fall back
// to the heap.
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

// TestArenaInheritedWithTheRows: a table built from an arena-pinned one with
// its rows — a derived column, a join whose output is the left table's rows
// — draws its filters' selections from the parent's arena. A join that
// gathers has other rows and none.
func TestArenaInheritedWithTheRows(t *testing.T) {
	tab := kernelTable(rand.New(rand.NewSource(45)), 1000)
	arena := NewWordArena(tab.NumRows())
	tab.SetArena(arena)
	derived, err := tab.Derive("twice", Binary{Op: OpMul, L: Col{Name: "level"}, R: Const{Value: 2}})
	if err != nil {
		t.Fatal(err)
	}
	cats := make([]string, 10)
	for i := range cats {
		cats[i] = fmt.Sprintf("c%d", i)
	}
	dim, err := NewTable(NewCategoricalColumn("cat", cats), NewIntColumn("rank", []int64{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}))
	if err != nil {
		t.Fatal(err)
	}
	full, _ := tab.View(nil)
	filtered, _ := tab.View(Range{Column: "level", Low: 0, High: 5})
	dimView, _ := dim.View(nil)
	joined, err := HashJoin(full, dimView, "cat", "cat", "dim_")
	if err != nil {
		t.Fatal(err)
	}
	gathered, err := HashJoin(filtered, dimView, "cat", "cat", "dim_")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		tab   *Table
		arena *WordArena
	}{{"derived", derived, arena}, {"dimension join", joined, arena}, {"gathered join", gathered, nil}} {
		sel, err := tc.tab.Where(Range{Column: "level", Low: -5, High: 5})
		if err != nil {
			t.Fatal(err)
		}
		if sel.arena != tc.arena {
			t.Errorf("%s: a filter's selection is drawn from arena %p, want %p", tc.name, sel.arena, tc.arena)
		}
		sel.Release()
	}
}

// TestArenaCachedSelectionReferences holds the reference contract of a
// cached bitmap: a caller's reference keeps it bit-identical through its
// eviction and through arena churn that recycles every other bitmap, and
// the caller's Release, the last reference, then returns it to the arena.
func TestArenaCachedSelectionReferences(t *testing.T) {
	tab := kernelTable(rand.New(rand.NewSource(47)), 1000)
	arena := NewWordArena(tab.NumRows())
	tab.SetArena(arena)
	cache := NewSelectionCacheCap(tab, 1)
	p := Range{Column: "score", Low: -2, High: 2}
	cached, err := cache.Where(p)
	if err != nil {
		t.Fatal(err)
	}
	if cached.arena != arena {
		t.Fatal("cached selection not arena-backed")
	}
	want, err := tab.Where(p)
	if err != nil {
		t.Fatal(err)
	}
	// Evict it, then churn the arena hard: a recycled bitmap would be zeroed
	// and handed to the next compile.
	for i := 0; i < 50; i++ {
		sel, err := cache.Where(GreaterThan{Column: "level", Threshold: float64(i%7 - 3)})
		if err != nil {
			t.Fatal(err)
		}
		sel.Release()
		if sel, err = tab.Where(Equals{Column: "cat", Value: fmt.Sprintf("c%d", i%10)}); err != nil {
			t.Fatal(err)
		}
		sel.Release()
	}
	requireSameBitmap(t, "evicted cached selection after churn", cached, want)
	before := arena.Stats().ReturnedSelections
	cached.Release()
	if got := arena.Stats().ReturnedSelections - before; got != 1 {
		t.Errorf("releasing the last reference returned %d selections, want 1", got)
	}
}

// TestArenaCacheSteadyStateZeroFresh: a session's 1-entry cache compiling
// alternating filters, each view released once read, takes no fresh
// selection after warm-up — every evicted bitmap goes back to the arena and
// the next compile draws it.
func TestArenaCacheSteadyStateZeroFresh(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts by design; zero-fresh cannot hold")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tab := kernelTable(rand.New(rand.NewSource(49)), 20000)
	arena := NewWordArena(tab.NumRows())
	tab.SetArena(arena)
	cache := NewSelectionCacheCap(tab, 1)
	preds := []Predicate{
		And{Terms: []Predicate{Equals{Column: "flag", Value: "true"}, Range{Column: "level", Low: -10, High: 10}}},
		GreaterThan{Column: "score", Threshold: 0},
	}
	run := func(i int) {
		v, err := cache.View(preds[i%len(preds)])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.CountsFor("cat", []string{"c0", "c1"}); err != nil {
			t.Fatal(err)
		}
		v.Release()
	}
	for i := 0; i < 6; i++ {
		run(i) // warm the pool
	}
	before := arena.Stats()
	for i := 0; i < 100; i++ {
		run(i)
	}
	after := arena.Stats()
	if after.FreshSelections != before.FreshSelections {
		t.Errorf("steady state allocated %d fresh selections, want 0 (stats: %+v)",
			after.FreshSelections-before.FreshSelections, after)
	}
	if _, _, misses := cache.Stats(); misses < 100 {
		t.Errorf("%d misses: the filters did not alternate through the 1-entry cache", misses)
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
// ns/row the packed main loops are judged by. The byte-code cases run
// fillRuns, the kernel whereRuns calls: one run (a Range, or an Equals), two
// runs (a non-adjacent In pair), a Range straddling code 128 on a 256-entry
// dictionary (one run for SSE2, two SWAR tests in the portable build), and an
// In of six runs (the per-code bitset).
func BenchmarkFillKernels(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(61))
	floats := make([]float64, n)
	ints := make([]int64, n)
	codes := make([]uint32, n)
	bytes := make([]uint8, n)
	bytes256 := make([]uint8, n)
	for i := 0; i < n; i++ {
		floats[i] = rng.Float64() * 100
		ints[i] = int64(rng.Intn(100))
		codes[i] = uint32(rng.Intn(12))
		bytes[i] = uint8(ints[i])
		bytes256[i] = uint8(rng.Intn(256))
	}
	dst := make([]uint64, n/64)
	set := []uint64{0b101101}
	pair := []uint64{1<<20 | 1<<40, 0, 0, 0}
	many := []uint64{0b101010101011, 0, 0, 0}
	for _, k := range []struct {
		name string
		fill func() int
	}{
		{"RangeFloats", func() int { return fillRangeFloats(dst, floats, 20, 30) }},
		{"RangeInts", func() int { return fillRangeInts(dst, ints, 20, 30) }},
		{"GtFloats", func() int { return fillGtFloats(dst, floats, 90) }},
		{"GtInts", func() int { return fillGtInts(dst, ints, 90) }},
		{"EqCodes", func() int { return fillEqCodes(dst, codes, 3) }},
		{"OneRun", func() int { return fillRuns(dst, bytes, rangeRuns(20, 30), nil) }},
		{"TwoRuns", func() int { return fillRuns(dst, bytes, setRuns(pair, 100), pair) }},
		{"Straddle256", func() int { return fillRuns(dst, bytes256, rangeRuns(100, 160), nil) }},
		{"ManyRuns", func() int { return fillRuns(dst, bytes, setRuns(many, 100), many) }},
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

// BenchmarkCountCodes times the count behind every chart of a filtered view:
// View.CountsFor of a byte-coded target over a random share of a million
// rows (a Range on a column of a thousand values), for targets of 3 and 6
// values, counted by their bit planes (countPlanes), and of 75, counted by
// the scan (countCodes), at 0.1 %, 1 %, 10 % and 30 % selected. It reports
// ns per selected row and per 64-row selection word; the planes are built
// before the timer starts. Run it with -cpu 1 to time it on one thread.
func BenchmarkCountCodes(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(71))
	dicts := []int{3, 6, 75}
	columns := make([]*Column, 0, len(dicts)+1)
	for _, d := range dicts {
		values := make([]string, n)
		for i := range values {
			values[i] = fmt.Sprintf("c%02d", rng.Intn(d))
		}
		columns = append(columns, NewCategoricalColumn(fmt.Sprintf("dict%d", d), values))
	}
	pick := make([]int64, n)
	for i := range pick {
		pick[i] = int64(rng.Intn(1000))
	}
	tab, err := NewTable(append(columns, NewIntColumn("pick", pick))...)
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range dicts {
		target := fmt.Sprintf("dict%d", d)
		cats, _ := tab.Categories(target)
		for _, share := range []struct {
			name string
			high float64
		}{{"0.1%", 1}, {"1%", 10}, {"10%", 100}, {"30%", 300}} {
			b.Run(fmt.Sprintf("dict=%d/selected=%s", d, share.name), func(b *testing.B) {
				v, err := tab.View(Range{Column: "pick", Low: 0, High: share.high})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := v.CountsFor(target, cats); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					counts, err := v.CountsFor(target, cats)
					if err != nil {
						b.Fatal(err)
					}
					benchSinkInt = counts[0]
				}
				perCall := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(perCall/float64(v.NumRows()), "ns/selected-row")
				b.ReportMetric(perCall/float64((n+63)/64), "ns/word")
			})
		}
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
