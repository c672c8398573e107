package plan

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"aware/internal/dataset"
)

// testCatalog backs Catalog with an in-memory map, like the server's registry
// but without the HTTP layer.
type testCatalog struct {
	tables map[string]*dataset.Table
	caches map[string]*dataset.SelectionCache
}

func newTestCatalog() *testCatalog {
	return &testCatalog{
		tables: make(map[string]*dataset.Table),
		caches: make(map[string]*dataset.SelectionCache),
	}
}

func (c *testCatalog) add(name string, t *dataset.Table) {
	c.tables[name] = t
	c.caches[name] = dataset.NewSelectionCache(t)
}

func (c *testCatalog) Dataset(name string) (*dataset.Table, *dataset.SelectionCache, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, nil, fmt.Errorf("test catalog: no dataset %q", name)
	}
	return t, c.caches[name], nil
}

// factTable builds the left side: a key into the dimension plus numeric and
// categorical payloads.
func factTable(t *testing.T, rows int, seed int64) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, rows)
	amounts := make([]float64, rows)
	regions := make([]string, rows)
	for i := range keys {
		keys[i] = []string{"a", "b", "c", "d"}[rng.Intn(4)]
		amounts[i] = float64(rng.Intn(500))
		regions[i] = []string{"north", "south"}[rng.Intn(2)]
	}
	tab, err := dataset.NewTable(
		dataset.NewCategoricalColumn("sku", keys),
		dataset.NewFloatColumn("amount", amounts),
		dataset.NewCategoricalColumn("region", regions),
	)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// dimTable builds the right side: one row per key plus an extra unmatched one.
func dimTable(t *testing.T) *dataset.Table {
	t.Helper()
	tab, err := dataset.NewTable(
		dataset.NewCategoricalColumn("sku", []string{"a", "b", "c", "d", "e"}),
		dataset.NewFloatColumn("price", []float64{10, 20, 30, 40, 50}),
		dataset.NewCategoricalColumn("tier", []string{"basic", "basic", "plus", "plus", "premium"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// requireSameView compares two views column by column over their selected
// rows.
func requireSameView(t *testing.T, label string, got, want dataset.View) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s: %d rows, want %d", label, got.NumRows(), want.NumRows())
	}
	gn, wn := got.Table().ColumnNames(), want.Table().ColumnNames()
	if !reflect.DeepEqual(gn, wn) {
		t.Fatalf("%s: columns %v, want %v", label, gn, wn)
	}
	gRows, wRows := got.Selection().Indices(), want.Selection().Indices()
	for _, name := range gn {
		gc, _ := got.Table().Column(name)
		wc, _ := want.Table().Column(name)
		if gc.Type == dataset.Float64 || gc.Type == dataset.Int64 {
			gf, err := got.Floats(name)
			if err != nil {
				t.Fatalf("%s: column %q: %v", label, name, err)
			}
			wf, err := want.Floats(name)
			if err != nil {
				t.Fatalf("%s: column %q: %v", label, name, err)
			}
			for i := range gf {
				if gf[i] != wf[i] {
					t.Fatalf("%s: column %q row %d: %v, want %v", label, name, i, gf[i], wf[i])
				}
			}
			continue
		}
		for i := range gRows {
			gs, gerr := gc.StringAt(gRows[i])
			ws, werr := wc.StringAt(wRows[i])
			if gerr != nil || werr != nil || gs != ws {
				t.Fatalf("%s: column %q row %d: %q (%v), want %q (%v)", label, name, i, gs, gerr, ws, werr)
			}
		}
	}
}

// TestOptimizeMergesAdjacentFilters pins the merge order: the inner filter's
// conjuncts become the prefix of the merged conjunction, so its cached bitmap
// subsumes the merged key.
func TestOptimizeMergesAdjacentFilters(t *testing.T) {
	tab := factTable(t, 10, 1)
	scan := TableScan{Table: tab}
	inner := dataset.Equals{Column: "region", Value: "north"}
	outer := dataset.Range{Column: "amount", Low: 0, High: 100}
	opt, err := Optimize(Filter{Input: Filter{Input: scan, Pred: inner}, Pred: outer}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Filter{Input: scan, Pred: dataset.And{Terms: []dataset.Predicate{inner, outer}}}
	if !reflect.DeepEqual(opt, Node(want)) {
		t.Fatalf("optimized to %#v\nwant %#v", opt, want)
	}
}

// TestOptimizeKeepsFiltersAboveJoinAndDerive: the optimizer moves no filter
// across a Join or a Derive. It only merges the filters the plan stacks.
func TestOptimizeKeepsFiltersAboveJoinAndDerive(t *testing.T) {
	tab := factTable(t, 10, 2)
	join := Join{Left: TableScan{Table: tab}, Right: TableScan{Table: dimTable(t)},
		LeftKey: "sku", RightKey: "sku", RightPrefix: "dim_"}
	derive := Derive{Input: join, Name: "double", Expr: dataset.Binary{
		Op: dataset.OpMul, L: dataset.Col{Name: "amount"}, R: dataset.Const{Value: 2},
	}}
	onLeft := dataset.Equals{Column: "region", Value: "south"}
	onRight := dataset.Equals{Column: "dim_tier", Value: "plus"}
	plan := Filter{Input: derive, Pred: dataset.And{Terms: []dataset.Predicate{onLeft, onRight}}}
	opt, err := Optimize(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(opt, Node(plan)) {
		t.Fatalf("optimized to %#v\nwant the plan unchanged", opt)
	}
}

// TestRunFilterAboveJoinDoesNotHideAFanOut: a filter above a join restricts
// the joined rows, so a dimension key held by two rows refuses the join even
// when the filter would remove one of them.
func TestRunFilterAboveJoinDoesNotHideAFanOut(t *testing.T) {
	dim, err := dataset.NewTable(
		dataset.NewCategoricalColumn("sku", []string{"a", "b", "c", "d", "d"}),
		dataset.NewCategoricalColumn("tier", []string{"basic", "basic", "plus", "plus", "premium"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	plan := Filter{
		Input: Join{Left: TableScan{Table: factTable(t, 50, 3)}, Right: TableScan{Table: dim},
			LeftKey: "sku", RightKey: "sku", RightPrefix: "dim_"},
		Pred: dataset.Not{Inner: dataset.Equals{Column: "dim_tier", Value: "premium"}},
	}
	if _, err := Run(plan, nil); !errors.Is(err, dataset.ErrJoinFansOut) {
		t.Fatalf("Run = %v, want ErrJoinFansOut", err)
	}
}

// TestRunFiltersThroughCache proves scan-level filters resolve through the
// dataset's SelectionCache: re-running a filter is an exact hit, and
// extending it (a second Filter node above) compiles the conjunction once —
// a miss — and is an exact hit when run again.
func TestRunFiltersThroughCache(t *testing.T) {
	cat := newTestCatalog()
	cat.add("fact", factTable(t, 500, 4))
	cache := cat.caches["fact"]
	base := Filter{Input: Scan{Dataset: "fact"}, Pred: dataset.Equals{Column: "region", Value: "north"}}

	if _, err := Run(base, cat); err != nil {
		t.Fatal(err)
	}
	hits0, _, misses0 := cache.Stats()
	if misses0 == 0 {
		t.Fatal("first filter run compiled nothing")
	}

	if _, err := Run(base, cat); err != nil {
		t.Fatal(err)
	}
	if hits1, _, _ := cache.Stats(); hits1 != hits0+1 {
		t.Fatalf("re-running the same filter: hits %d -> %d, want an exact hit", hits0, hits1)
	}

	refined := Filter{Input: base, Pred: dataset.Range{Column: "amount", Low: 0, High: 250}}
	res, err := Run(refined, cat)
	if err != nil {
		t.Fatal(err)
	}
	if hits1, _, misses1 := cache.Stats(); hits1 != hits0+1 || misses1 != misses0+1 {
		t.Fatalf("refining a cached filter: hits %d -> %d, misses %d -> %d; want one miss", hits0, hits1, misses0, misses1)
	}
	if _, err := Run(refined, cat); err != nil {
		t.Fatal(err)
	}
	if hits2, _, misses2 := cache.Stats(); hits2 != hits0+2 || misses2 != misses0+1 {
		t.Fatalf("re-running the refined filter: hits %d -> %d, misses %d -> %d; want an exact hit", hits0, hits2, misses0, misses2)
	}

	// And the cache-served rows must equal the cold evaluation.
	tab := cat.tables["fact"]
	coldSel, err := tab.Where(dataset.And{Terms: []dataset.Predicate{base.Pred, refined.Pred}})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := dataset.NewView(tab, coldSel)
	if err != nil {
		t.Fatal(err)
	}
	requireSameView(t, "cache-served filter", res.View, cold)
}

// TestRunJoinPlanMatchesDirectEvaluation runs the full pipeline — a join over
// two scans, filtered on columns of both sides, then a derive — and compares
// against evaluating the same operations directly against the dataset layer,
// where each side is filtered before the join: against a unique-key dimension
// the two orders select the same rows.
func TestRunJoinPlanMatchesDirectEvaluation(t *testing.T) {
	cat := newTestCatalog()
	fact, dim := factTable(t, 400, 5), dimTable(t)
	cat.add("fact", fact)
	cat.add("dim", dim)

	plan := Derive{
		Input: Filter{
			Input: Join{Left: Scan{Dataset: "fact"}, Right: Scan{Dataset: "dim"},
				LeftKey: "sku", RightKey: "sku", RightPrefix: "dim_"},
			Pred: dataset.And{Terms: []dataset.Predicate{
				dataset.Equals{Column: "region", Value: "north"},
				dataset.Equals{Column: "dim_tier", Value: "plus"},
			}},
		},
		Name: "revenue",
		Expr: dataset.Binary{Op: dataset.OpMul, L: dataset.Col{Name: "amount"}, R: dataset.Col{Name: "dim_price"}},
	}
	res, err := Run(plan, cat)
	if err != nil {
		t.Fatal(err)
	}

	// Direct evaluation, no plan layer: filter each side, hash join, derive.
	lsel, err := fact.Where(dataset.Equals{Column: "region", Value: "north"})
	if err != nil {
		t.Fatal(err)
	}
	lv, err := dataset.NewView(fact, lsel)
	if err != nil {
		t.Fatal(err)
	}
	rsel, err := dim.Where(dataset.Equals{Column: "tier", Value: "plus"})
	if err != nil {
		t.Fatal(err)
	}
	rv, err := dataset.NewView(dim, rsel)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := dataset.HashJoin(lv, rv, "sku", "sku", "dim_")
	if err != nil {
		t.Fatal(err)
	}
	derived, err := joined.Derive("revenue", plan.Expr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dataset.NewView(derived, dataset.FullSelection(derived.NumRows()))
	if err != nil {
		t.Fatal(err)
	}
	requireSameView(t, "join plan", res.View, want)
	if res.View.NumRows() == 0 {
		t.Fatal("degenerate test: the joined, filtered view is empty")
	}
}

// TestRunGroupBy compares a GroupBy root against View.CrossCounts directly,
// and rejects group-bys anywhere else in the plan.
func TestRunGroupBy(t *testing.T) {
	cat := newTestCatalog()
	fact := factTable(t, 300, 6)
	cat.add("fact", fact)
	pred := dataset.GreaterThan{Column: "amount", Threshold: 100}

	res, err := Run(GroupBy{
		Input:   Filter{Input: Scan{Dataset: "fact"}, Pred: pred},
		RowAttr: "region",
		ColAttr: "amount",
	}, cat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cross == nil {
		t.Fatal("GroupBy root returned no contingency table")
	}

	view, err := fact.View(pred)
	if err != nil {
		t.Fatal(err)
	}
	want, err := view.CrossCounts("region", "amount", DefaultBins)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Cross, want) {
		t.Fatalf("cross tab %+v, want %+v", res.Cross, want)
	}

	_, err = Run(Filter{Input: GroupBy{Input: Scan{Dataset: "fact"}, RowAttr: "region", ColAttr: "sku"}, Pred: pred}, cat)
	if err == nil || !strings.Contains(err.Error(), "root") {
		t.Fatalf("non-root group-by: %v, want a root-position error", err)
	}
}

// TestRunGroupByArenaSteadyStateZeroFresh: group-by plans over a 1-entry
// cache, their filters alternating, take no fresh selection after warm-up,
// whether they count the filtered rows, a join of them, or them filtered
// again on a derived column. Every node releases the selection it consumes
// and the root the view it counts, so every evicted filter bitmap goes back
// to the table's arena and the next compile draws it.
func TestRunGroupByArenaSteadyStateZeroFresh(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts by design; zero-fresh cannot hold")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dim := dimTable(t)
	preds := []dataset.Predicate{
		dataset.Equals{Column: "region", Value: "north"},
		dataset.GreaterThan{Column: "amount", Threshold: 250},
	}
	for _, shape := range []string{"filter", "join", "derive"} {
		fact := factTable(t, 20000, 41)
		arena := dataset.NewWordArena(fact.NumRows())
		fact.SetArena(arena)
		cache := dataset.NewSelectionCacheCap(fact, 1)
		run := func(i int) {
			var in Node = Filter{Input: TableScan{Table: fact, Cache: cache}, Pred: preds[i%len(preds)]}
			switch shape {
			case "join":
				in = Join{Left: in, Right: TableScan{Table: dim}, LeftKey: "sku", RightKey: "sku", RightPrefix: "dim_"}
			case "derive":
				in = Derive{Input: in, Name: "band", Expr: dataset.Bucket{Arg: dataset.Col{Name: "amount"}, Width: 50}}
				in = Filter{Input: in, Pred: dataset.GreaterThan{Column: "band", Threshold: 100}}
			}
			if _, err := Run(GroupBy{Input: in, RowAttr: "sku", ColAttr: "amount"}, nil); err != nil {
				t.Fatal(err)
			}
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
			t.Errorf("%s: steady state allocated %d fresh selections, want 0 (stats: %+v)",
				shape, after.FreshSelections-before.FreshSelections, after)
		}
		if _, _, misses := cache.Stats(); misses < 100 {
			t.Errorf("%s: %d misses: the filters did not alternate through the 1-entry cache", shape, misses)
		}
	}
}

// TestRunValidation covers the execution-time contract errors.
func TestRunValidation(t *testing.T) {
	fact := factTable(t, 20, 7)
	other := factTable(t, 20, 8)
	cases := []struct {
		name string
		n    Node
		want string
	}{
		{"nil node", nil, "nil node"},
		{"scan without catalog", Scan{Dataset: "fact"}, "requires a catalog"},
		{"table scan without table", TableScan{}, "without a table"},
		{"cache bound elsewhere", TableScan{Table: other, Cache: dataset.NewSelectionCache(fact)}, "different table"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(tc.n, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run = %v, want error containing %q", err, tc.want)
			}
		})
	}
}
