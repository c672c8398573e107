package dataset

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// This file tests the per-column reference-statistics memo (refStats in
// table.go). The contract: whatever the memo answers — Categories, and
// CountsFor / GroupBy / BinCounts over a view that selects every row — equals
// a fresh recomputation that never touches it, on every store, pool and
// derived table; a derived table shares the memo of exactly the columns it
// shares; first use is safe under concurrency; and no caller can corrupt it
// through a returned slice.

// freshValueCounts recounts a categorical or bool column through the
// row-at-a-time accessor only.
func freshValueCounts(t *testing.T, tab *Table, column string) map[string]int {
	t.Helper()
	c, err := tab.Column(column)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for i := 0; i < tab.NumRows(); i++ {
		v, err := c.StringAt(i)
		if err != nil {
			t.Fatal(err)
		}
		counts[v]++
	}
	return counts
}

// freshBinCounts rebins a numeric column through the row-at-a-time accessor
// and the pre-vectorization arithmetic.
func freshBinCounts(t *testing.T, tab *Table, column string, bins int) []int {
	t.Helper()
	all := columnFloats(t, tab, column)
	return legacyBinCounts(all, all, bins)
}

// addInts returns a+b elementwise.
func addInts(a, b []int) []int {
	out := make([]int, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// requireRefStatsFresh asserts every memo-served answer of the table equals
// the fresh recomputation, twice over (the first pass may fill the memo, the
// second must read it), and that the scanning kernels agree with it: the
// counts of any selection and of its complement sum to the full view's.
func requireRefStatsFresh(t *testing.T, label string, tab *Table, split Predicate) {
	t.Helper()
	const bins = 10
	full, err := tab.View(nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	part, err := tab.View(split)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	rest := View{table: tab, sel: part.sel.Not()}
	for pass := 0; pass < 2; pass++ {
		for _, name := range tab.ColumnNames() {
			c, _ := tab.Column(name)
			ctx := fmt.Sprintf("%s: column %s pass %d", label, name, pass)
			if c.Type == Float64 || c.Type == Int64 {
				want := freshBinCounts(t, tab, name, bins)
				got, err := full.BinCounts(name, bins)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: full BinCounts = %v, %v; fresh %v", ctx, got, err, want)
				}
				a, errA := part.BinCounts(name, bins)
				b, errB := rest.BinCounts(name, bins)
				if errA != nil || errB != nil || !reflect.DeepEqual(addInts(a, b), want) {
					t.Fatalf("%s: scanned BinCounts %v + %v != fresh %v", ctx, a, b, want)
				}
				continue
			}
			fresh := freshValueCounts(t, tab, name)
			var wantCats []string
			var wantGroups []GroupCount
			for v := range fresh {
				wantCats = append(wantCats, v)
			}
			sort.Strings(wantCats)
			for _, v := range wantCats {
				wantGroups = append(wantGroups, GroupCount{Value: v, Count: fresh[v]})
			}
			cats, err := tab.Categories(name)
			if err != nil || !reflect.DeepEqual(cats, wantCats) {
				t.Fatalf("%s: Categories = %v, %v; fresh %v", ctx, cats, err, wantCats)
			}
			// Ask in an order and with a value the memo does not hold.
			ask := append([]string{"no such value"}, wantCats...)
			sort.Sort(sort.Reverse(sort.StringSlice(ask[1:])))
			wantCounts := make([]int, len(ask))
			for i, v := range ask {
				wantCounts[i] = fresh[v]
			}
			got, err := full.CountsFor(name, ask)
			if err != nil || !reflect.DeepEqual(got, wantCounts) {
				t.Fatalf("%s: full CountsFor = %v, %v; fresh %v", ctx, got, err, wantCounts)
			}
			a, errA := part.CountsFor(name, ask)
			b, errB := rest.CountsFor(name, ask)
			if errA != nil || errB != nil || !reflect.DeepEqual(addInts(a, b), wantCounts) {
				t.Fatalf("%s: scanned CountsFor %v + %v != fresh %v", ctx, a, b, wantCounts)
			}
			groups, err := full.GroupBy(name)
			if err != nil || !reflect.DeepEqual(groups, wantGroups) {
				t.Fatalf("%s: full GroupBy = %v, %v; fresh %v", ctx, groups, err, wantGroups)
			}
			tableGroups, err := tab.GroupBy(name)
			if err != nil || !reflect.DeepEqual(tableGroups, wantGroups) {
				t.Fatalf("%s: Table.GroupBy = %v, %v; fresh %v", ctx, tableGroups, err, wantGroups)
			}
			vc, err := tab.ValueCounts(name)
			if err != nil || !reflect.DeepEqual(vc, fresh) {
				t.Fatalf("%s: ValueCounts = %v, %v; fresh %v", ctx, vc, err, fresh)
			}
		}
	}
}

// TestRefStatsMatchFreshRecomputation is the property test of the memo over
// random tables of 1 to 200k rows, in memory and reloaded through the mmap,
// heap and CSV-ingest stores, on pools of 1, 2 and 8 workers.
func TestRefStatsMatchFreshRecomputation(t *testing.T) {
	rng := rand.New(rand.NewSource(1501))
	sizes := []int{1, 2, 63, 64, 65, morselRows, morselRows + 1}
	if !testing.Short() {
		sizes = append(sizes, 1+rng.Intn(200_000))
	}
	pools := []*Pool{NewPool(1), NewPool(2), NewPool(8)}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	split := Or{Terms: []Predicate{Equals{Column: "color", Value: "red"}, GreaterThan{Column: "score", Threshold: 3}}}
	for si, rows := range sizes {
		mem := randomSizedTable(rng, rows)
		variants := snapshotVariants(t, mem)
		variants["memory"] = mem
		for store, tab := range variants {
			// Rotate which pool sees the empty memo first.
			for k := range pools {
				p := pools[(si+k)%len(pools)]
				tab.SetPool(p)
				requireRefStatsFresh(t, fmt.Sprintf("rows=%d store=%s workers=%d", rows, store, p.Workers()), tab, split)
			}
			// One scan per categorical or bool column; two per numeric column,
			// which is first byte-encoded (level; score in the tables of up to
			// 256 rows) or found wide (the split predicate looks that up
			// again) and then binned.
			if hits, computed := tab.RefStats(); computed != 6 || hits == 0 {
				t.Errorf("rows=%d store=%s: memo filled by %d scans with %d hits, want 6 scans (color, flag; score and level twice)", rows, store, computed, hits)
			}
		}
	}
}

// deriveEveryWay derives tables from parent every way the package can:
// Select (a duplicated row included), Shuffle of the named columns, Derive of
// a bucket over a numeric column, both hold-out halves, a join of a filtered
// left side (gathered) and a join of the full parent against a unique-key
// dimension over its categorical column key (shared).
func deriveEveryWay(t *testing.T, rng *rand.Rand, parent *Table, shuffle []string, numeric, key string) map[string]*Table {
	t.Helper()
	derived := map[string]*Table{}
	var err error
	if derived["select"], err = parent.Select([]int{4, 8, 15, 16, 23, 42, 42}); err != nil {
		t.Fatal(err)
	}
	if derived["shuffle"], err = parent.Shuffle(rng, shuffle...); err != nil {
		t.Fatal(err)
	}
	if derived["derive"], err = parent.Derive(numeric+"_bucket", Bucket{Arg: Col{Name: numeric}, Width: 10}); err != nil {
		t.Fatal(err)
	}
	if derived["explore"], derived["holdout"], err = parent.Split(rng, 0.3); err != nil {
		t.Fatal(err)
	}
	left, err := parent.View(GreaterThan{Column: numeric, Threshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	right, err := derived["select"].View(nil)
	if err != nil {
		t.Fatal(err)
	}
	if derived["join"], err = HashJoin(left, right, key, key, "r_"); err != nil {
		t.Fatal(err)
	}
	keys, _ := parent.Column(key)
	ranks := make([]int64, len(keys.dict))
	for i := range ranks {
		ranks[i] = int64(i)
	}
	dim, err := NewTable(NewCategoricalColumn(key, keys.dict), NewIntColumn("rank", ranks))
	if err != nil {
		t.Fatal(err)
	}
	full, _ := parent.View(nil)
	dimView, _ := dim.View(nil)
	if derived["shared join"], err = HashJoin(full, dimView, key, key, "dim_"); err != nil {
		t.Fatal(err)
	}
	return derived
}

// requireMemoCarriedWhereShared runs use over each derived table and holds
// its column memos to the sharing rule: the columns it shares with parent
// are exactly wantShared[name] and run no new scan, and every other column
// starts with an empty memo.
func requireMemoCarriedWhereShared(t *testing.T, parent *Table, derived map[string]*Table, wantShared map[string][]string, use func(name string, tab *Table)) {
	t.Helper()
	for name, tab := range derived {
		if tab.NumRows() == 0 {
			t.Fatalf("%s: derived table is empty", name)
		}
		var shared []string
		before := map[*Column]uint64{}
		for _, c := range tab.columns {
			if pc, ok := parent.byName[c.Name]; ok && pc == c {
				shared = append(shared, c.Name)
				before[c] = c.ref.computed.Load()
				continue
			}
			if hits, computed := c.ref.hits.Load(), c.ref.computed.Load(); hits != 0 || computed != 0 ||
				c.ref.codes != nil || c.ref.bytes != nil || len(c.ref.bins) != 0 {
				t.Errorf("%s: column %s is new but its memo is not empty (%d hits, %d scans)", name, c.Name, hits, computed)
			}
		}
		if !reflect.DeepEqual(shared, wantShared[name]) {
			t.Fatalf("%s: shares %v with its parent, want %v", name, shared, wantShared[name])
		}
		use(name, tab)
		for c, computed := range before {
			if now := c.ref.computed.Load(); now != computed {
				t.Errorf("%s: shared column %s ran %d new scans", name, c.Name, now-computed)
			}
		}
	}
}

// TestRefStatsCarriedExactlyWhereShared fills a table's memos and then
// derives tables from it every way the package can. A table that shares a
// column (Derive, Shuffle's untouched columns, a join that keeps its probe
// side) shares its memo and runs no new scan for it; every gathered column
// (Select, Split, a gathered join, a shuffled column) computes its own
// answers — a Select of a few rows loses categories its parent has.
func TestRefStatsCarriedExactlyWhereShared(t *testing.T) {
	rng := rand.New(rand.NewSource(1502))
	parent := kernelTable(rng, 5000)
	for i := range parent.columns {
		if parent.columns[i].Name == "score" {
			// kernelTable sprinkles NaNs, which no histogram accepts.
			clean := make([]float64, parent.rows)
			for j := range clean {
				clean[j] = float64(rng.Intn(100))
			}
			cols := append([]*Column(nil), parent.columns...)
			cols[i] = NewFloatColumn("score", clean)
			var err error
			if parent, err = NewTable(cols...); err != nil {
				t.Fatal(err)
			}
		}
	}
	split := Or{Terms: []Predicate{Equals{Column: "cat", Value: "c3"}, GreaterThan{Column: "level", Threshold: 3}}}
	requireRefStatsFresh(t, "parent", parent, split)

	derived := deriveEveryWay(t, rng, parent, []string{"wide", "flag"}, "level", "cat")
	all := parent.ColumnNames()
	requireMemoCarriedWhereShared(t, parent, derived, map[string][]string{
		"shuffle":     {"cat", "score", "level"},
		"derive":      all,
		"shared join": all,
	}, func(name string, tab *Table) {
		requireRefStatsFresh(t, name, tab, split)
	})
	// The few selected rows cannot hold all 300 wide values: a carried-over
	// category list would.
	few, _ := derived["select"].Categories("wide")
	wide, _ := parent.Categories("wide")
	if len(few) >= len(wide) || len(few) > 6 {
		t.Errorf("select kept %d of the parent's %d wide categories", len(few), len(wide))
	}
	// Deriving must not have disturbed the parent's memo either.
	requireRefStatsFresh(t, "parent after deriving", parent, split)
}

// TestRefStatsConcurrentFirstUseOfSharedColumn races 16 goroutines onto the
// first use of one column held by two tables — the parent and a table
// derived from it — half asking through each (run under -race in CI): each
// reads what a sequential reader of an untouched copy reads, and the column
// keeps one entry per statistic.
func TestRefStatsConcurrentFirstUseOfSharedColumn(t *testing.T) {
	build := func() *Table { return randomSizedTable(rand.New(rand.NewSource(1506)), 3*morselRows+17) }
	calm := build()
	fullCalm, _ := calm.View(nil)
	wantColor, _ := fullCalm.GroupBy("color")
	wantBins, _ := fullCalm.BinCounts("level", 10)

	parent := build()
	child, err := parent.Derive("level_bucket", Bucket{Arg: Col{Name: "level"}, Width: 10})
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tab := []*Table{parent, child}[g%2]
			full, err := tab.View(nil)
			if err != nil {
				t.Error(err)
				return
			}
			<-start
			if got, err := full.GroupBy("color"); err != nil || !reflect.DeepEqual(got, wantColor) {
				t.Errorf("goroutine %d: GroupBy = %v, %v", g, got, err)
			}
			if got, err := full.BinCounts("level", 10); err != nil || !reflect.DeepEqual(got, wantBins) {
				t.Errorf("goroutine %d: BinCounts = %v, %v", g, got, err)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for _, name := range []string{"color", "level"} {
		pc, _ := parent.Column(name)
		cc, _ := child.Column(name)
		if pc != cc {
			t.Fatalf("column %s is not shared", name)
		}
	}
	if encodings, tallies, binnings := memoEntries(child); encodings != 1 || tallies != 1 || binnings != 1 {
		t.Errorf("shared columns hold %d encodings, %d tallies, %d binnings; want one each", encodings, tallies, binnings)
	}
}

// TestRefStatsConcurrentFirstUse races 16 goroutines onto the empty memo of
// one table (run under -race in CI): every one of them must read the same
// answers a sequential reader of an untouched copy gets.
func TestRefStatsConcurrentFirstUse(t *testing.T) {
	build := func() *Table { return randomSizedTable(rand.New(rand.NewSource(1503)), 3*morselRows+17) }
	calm := build()
	fullCalm, _ := calm.View(nil)
	wantCats, _ := calm.Categories("color")
	wantColor, _ := fullCalm.CountsFor("color", wantCats)
	wantFlag, _ := fullCalm.GroupBy("flag")
	wantBins, _ := fullCalm.BinCounts("score", 10)

	tab := build()
	full, err := tab.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 4; i++ {
				cats, err := tab.Categories("color")
				if err != nil || !reflect.DeepEqual(cats, wantCats) {
					t.Errorf("goroutine %d: Categories = %v, %v", g, cats, err)
				}
				if got, err := full.CountsFor("color", cats); err != nil || !reflect.DeepEqual(got, wantColor) {
					t.Errorf("goroutine %d: CountsFor = %v, %v", g, got, err)
				}
				if got, err := full.GroupBy("flag"); err != nil || !reflect.DeepEqual(got, wantFlag) {
					t.Errorf("goroutine %d: GroupBy = %v, %v", g, got, err)
				}
				if got, err := full.BinCounts("score", 10); err != nil || !reflect.DeepEqual(got, wantBins) {
					t.Errorf("goroutine %d: BinCounts = %v, %v", g, got, err)
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	// Racing first users may each scan, but only one copy per entry is kept.
	if encodings, tallies, binnings := memoEntries(tab); encodings+tallies+binnings != 4 {
		t.Errorf("memo holds %d entries, want 4 (color, flag, score/10, score found wide)", encodings+tallies+binnings)
	}
}

// TestRefStatsReturnedSlicesAreCopies scribbles over everything the memo
// hands out and asks again.
func TestRefStatsReturnedSlicesAreCopies(t *testing.T) {
	tab := randomSizedTable(rand.New(rand.NewSource(1504)), 1000)
	full, err := tab.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, column := range []string{"color", "flag"} {
		cats, _ := tab.Categories(column)
		wantCats := append([]string(nil), cats...)
		counts, _ := full.CountsFor(column, cats)
		wantCounts := append([]int(nil), counts...)
		groups, _ := full.GroupBy(column)
		wantGroups := append([]GroupCount(nil), groups...)
		vc, _ := tab.ValueCounts(column)

		for i := range cats {
			cats[i] = "scribbled"
		}
		_ = append(cats[:0], "x", "y", "z", "w", "v")
		for i := range counts {
			counts[i] = -1
		}
		for i := range groups {
			groups[i] = GroupCount{Value: "scribbled", Count: -1}
		}
		for k := range vc {
			vc[k] = -1
		}

		if got, _ := tab.Categories(column); !reflect.DeepEqual(got, wantCats) {
			t.Errorf("%s: Categories after scribbling = %v, want %v", column, got, wantCats)
		}
		if got, _ := full.CountsFor(column, wantCats); !reflect.DeepEqual(got, wantCounts) {
			t.Errorf("%s: CountsFor after scribbling = %v, want %v", column, got, wantCounts)
		}
		if got, _ := full.GroupBy(column); !reflect.DeepEqual(got, wantGroups) {
			t.Errorf("%s: GroupBy after scribbling = %v, want %v", column, got, wantGroups)
		}
	}
	bins, _ := full.BinCounts("level", 10)
	wantBins := append([]int(nil), bins...)
	for i := range bins {
		bins[i] = -1
	}
	if got, _ := full.BinCounts("level", 10); !reflect.DeepEqual(got, wantBins) {
		t.Errorf("BinCounts after scribbling = %v, want %v", got, wantBins)
	}
}

// TestCategoriesBoolNeverMaterializesStrings pins the fix of the PR-11
// finding: Categories (and ValueCounts) on a bool column went through
// Table.Strings, a string per row. Presence now comes from the bool vector;
// what is left to allocate is the returned slice.
func TestCategoriesBoolNeverMaterializesStrings(t *testing.T) {
	flags := make([]bool, 100_000)
	allFalse, err := NewTable(NewBoolColumn("flag", flags))
	if err != nil {
		t.Fatal(err)
	}
	if cats, _ := allFalse.Categories("flag"); !reflect.DeepEqual(cats, []string{"false"}) {
		t.Errorf("all-false column: Categories = %v", cats)
	}
	flags = append([]bool(nil), flags...)
	flags[77] = true
	mixed, err := NewTable(NewBoolColumn("flag", flags))
	if err != nil {
		t.Fatal(err)
	}
	if cats, _ := mixed.Categories("flag"); !reflect.DeepEqual(cats, []string{"false", "true"}) {
		t.Errorf("mixed column: Categories = %v", cats)
	}
	if vc, _ := mixed.ValueCounts("flag"); vc["true"] != 1 || vc["false"] != len(flags)-1 || len(vc) != 2 {
		t.Errorf("mixed column: ValueCounts = %v", vc)
	}
	if raceEnabled {
		return // the race runtime's allocations are not the code's
	}
	if allocs := testing.AllocsPerRun(10, func() { _, _ = mixed.Categories("flag") }); allocs > 1 {
		t.Errorf("Categories on a bool column allocates %v objects per call, want 1 (the returned slice)", allocs)
	}
	// A table that has never been asked scans once and allocates O(1), not
	// O(rows): the regression was ~2 objects per row.
	var cold *Table
	allocs := testing.AllocsPerRun(5, func() {
		cold, _ = NewTable(NewBoolColumn("flag", flags))
		_, _ = cold.Categories("flag")
	})
	if allocs > 40 {
		t.Errorf("first Categories on a 100k-row bool column allocates %v objects, want a handful", allocs)
	}
}

// BenchmarkCategoriesBool keeps the bool path of Table.Categories honest: it
// was ~55 ms per call at 300k rows when it built a string per row.
func BenchmarkCategoriesBool(b *testing.B) {
	rng := rand.New(rand.NewSource(1505))
	flags := make([]bool, 300_000)
	for i := range flags {
		flags[i] = rng.Intn(2) == 0
	}
	b.Run("memoized", func(b *testing.B) {
		tab, err := NewTable(NewBoolColumn("flag", flags))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tab.Categories("flag"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("first_use", func(b *testing.B) {
		col := NewBoolColumn("flag", flags)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tab, err := NewTable(col)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tab.Categories("flag"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
