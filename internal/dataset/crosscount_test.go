package dataset

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// The cross-count kernel against its oracle: CrossCounts counts every
// selected row once, through the kernel instantiated for its pair of code
// widths; crossOracle counts it through a per-row code accessor for each
// axis. They must agree cell for cell on every axis kind — categorical codes
// one, two and four bytes wide, bool, a coded numeric column binned through
// its per-value table and a wide one binned per row — on any selection and
// any pool.

// crossRows spans a morsel and a part of one that ends inside a word.
const crossRows = morselRows + 5*64 + 37

// crossAxes names the fixture's columns, one per axis kind.
var crossAxes = []string{"cat8", "cat16", "cat32", "flag", "coded", "wide"}

var crossFixture struct {
	once sync.Once
	tab  *Table
}

// crossTable builds, once, the fixture every cross-count test reads.
func crossTable(tb testing.TB) *Table {
	crossFixture.once.Do(func() {
		rng := rand.New(rand.NewSource(4101))
		cat8, cat16 := make([]string, crossRows), make([]string, crossRows)
		flags := make([]bool, crossRows)
		coded, wide := make([]float64, crossRows), make([]float64, crossRows)
		draws := make([]int, crossRows)
		// A dictionary past 65,536 values takes four-byte codes; the rows
		// draw from it sparsely, keeping its width.
		big := make([]string, 1<<16+1)
		for i := range big {
			big[i] = fmt.Sprintf("k%06d", i)
		}
		for i := 0; i < crossRows; i++ {
			cat8[i] = fmt.Sprintf("c%d", rng.Intn(7))
			cat16[i] = fmt.Sprintf("m%03d", rng.Intn(300))
			flags[i] = rng.Intn(3) == 0
			coded[i] = float64(rng.Intn(90) - 20)
			wide[i] = rng.NormFloat64() * 100
			draws[i] = rng.Intn(len(big))
		}
		tab, err := NewTable(NewCategoricalColumn("cat8", cat8), NewCategoricalColumn("cat16", cat16),
			gather(nil, NewCategoricalColumn("cat32", big).phys, draws, "cat32"), NewBoolColumn("flag", flags),
			NewFloatColumn("coded", coded), NewFloatColumn("wide", wide))
		if err != nil {
			panic(err)
		}
		crossFixture.tab = tab
	})
	tab := crossFixture.tab
	for name, width := range map[string]int{"cat8": 1, "cat16": 2, "cat32": 4, "flag": 1, "coded": 1, "wide": 0} {
		if c, _ := tab.Column(name); c.width != width {
			tb.Fatalf("fixture column %s is %d bytes wide, want %d", name, c.width, width)
		}
	}
	return tab
}

// onPool returns a table holding tab's columns, memos included, whose
// kernels run on p.
func onPool(tb testing.TB, tab *Table, p *Pool) *Table {
	out, err := NewTable(tab.columns...)
	if err != nil {
		tb.Fatal(err)
	}
	out.SetPool(p)
	return out
}

// errCrossTooWide is crossOracle's refusal of a cross-tab past maxCrossCells.
var errCrossTooWide = errors.New("cross-tab too wide")

// crossOracle is CrossCounts counted one selected row at a time, through a
// per-row code accessor for each axis: the reference the kernel is held to.
func crossOracle(v View, rowAttr, colAttr string, bins int) (*CrossTab, error) {
	axis := func(name string) ([]string, func(row int) int, error) {
		c, err := v.table.Column(name)
		if err != nil {
			return nil, nil, err
		}
		if c.Type == Categorical || c.Type == Bool {
			return c.dict, c.code, nil
		}
		ba, err := v.table.binAssignments(name, bins)
		if err != nil {
			return nil, nil, err
		}
		if ba.codes != nil {
			return ba.labels, func(row int) int { return int(ba.binOf[ba.codes[row]]) }, nil
		}
		return ba.labels, func(row int) int { return int(ba.assign[row]) }, nil
	}
	rowLabels, rowAt, err := axis(rowAttr)
	if err != nil {
		return nil, err
	}
	colLabels, colAt, err := axis(colAttr)
	if err != nil {
		return nil, err
	}
	rw, cw := len(rowLabels), len(colLabels)
	if rw*cw > maxCrossCells {
		return nil, errCrossTooWide
	}
	flat := make([]int, rw*cw)
	v.sel.ForEach(func(row int) { flat[rowAt(row)*cw+colAt(row)]++ })
	counts := make([][]int, rw)
	for i := range counts {
		counts[i] = flat[i*cw : (i+1)*cw]
	}
	return &CrossTab{RowLabels: rowLabels, ColLabels: colLabels, Counts: counts}, nil
}

// requireCrossMatchesOracle holds CrossCounts to crossOracle over one view;
// a cross-tab past maxCrossCells must be refused by both.
func requireCrossMatchesOracle(t *testing.T, ctx string, v View, rowAttr, colAttr string, bins int) {
	t.Helper()
	want, wantErr := crossOracle(v, rowAttr, colAttr, bins)
	got, err := v.CrossCounts(rowAttr, colAttr, bins)
	switch {
	case errors.Is(wantErr, errCrossTooWide):
		if err == nil {
			t.Fatalf("%s: CrossCounts(%s, %s) spans more than %d cells but was counted", ctx, rowAttr, colAttr, maxCrossCells)
		}
	case wantErr != nil || err != nil:
		t.Fatalf("%s: CrossCounts(%s, %s): %v; oracle: %v", ctx, rowAttr, colAttr, err, wantErr)
	case !slices.Equal(got.RowLabels, want.RowLabels) || !slices.Equal(got.ColLabels, want.ColLabels) ||
		!slices.EqualFunc(got.Counts, want.Counts, slices.Equal[[]int]):
		t.Fatalf("%s: CrossCounts(%s, %s) differs from the per-row oracle", ctx, rowAttr, colAttr)
	}
}

// crossSelections is the battery of row sets: none, every row, dense and
// sparse random draws, the rows of the last, partial word alone and the rows
// of one morsel.
func crossSelections(rng *rand.Rand, tab *Table) map[string]*Selection {
	dense, sparse := make([]bool, crossRows), make([]bool, crossRows)
	for row := range dense {
		dense[row], sparse[row] = rng.Intn(2) == 0, rng.Intn(50) == 0
	}
	tail := crossRows / 64 * 64
	return map[string]*Selection{
		"empty":     selectRows(tab, func(int) bool { return false }),
		"full":      selectRows(tab, func(int) bool { return true }),
		"dense":     selectRows(tab, func(row int) bool { return dense[row] }),
		"sparse":    selectRows(tab, func(row int) bool { return sparse[row] }),
		"tail word": selectRows(tab, func(row int) bool { return row >= tail }),
		"morsel":    selectRows(tab, func(row int) bool { return row/morselRows == 1 }),
	}
}

// TestCrossCountsMatchesOracle crosses every ordered pair of axis kinds
// under every selection of the battery on pools of 1, 2 and 8 workers. The
// four-byte axis, whose 65,537 labels make each of its cross-tabs hundreds
// of thousands of cells, is crossed under the sparse and tail-word
// selections only.
func TestCrossCountsMatchesOracle(t *testing.T) {
	base := crossTable(t)
	sels := crossSelections(rand.New(rand.NewSource(4102)), base)
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers)
		tab := onPool(t, base, p)
		for name, sel := range sels {
			v := View{table: tab, sel: sel}
			for _, row := range crossAxes {
				for _, col := range crossAxes {
					if (row == "cat32" || col == "cat32") && name != "sparse" && name != "tail word" {
						continue
					}
					requireCrossMatchesOracle(t, fmt.Sprintf("pool %d, %s rows", workers, name), v, row, col, 5)
				}
			}
		}
		p.Close()
	}
}

// FuzzCrossCounts holds CrossCounts to the per-row oracle on the fixture:
// the fuzzer picks the two axes, the bin count, the pool, and the selection —
// the rows of [lo, hi) kept with a density out of 255, drawn from seed.
func FuzzCrossCounts(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(10), uint8(0), int64(1), uint16(0), uint16(65535), uint8(255))
	f.Add(uint8(2), uint8(3), uint8(4), uint8(1), int64(2), uint16(100), uint16(40000), uint8(128))
	f.Add(uint8(4), uint8(5), uint8(1), uint8(2), int64(3), uint16(60000), uint16(65535), uint8(30))
	f.Add(uint8(5), uint8(2), uint8(64), uint8(2), int64(4), uint16(0), uint16(0), uint8(0))
	f.Add(uint8(1), uint8(4), uint8(7), uint8(1), int64(5), uint16(16000), uint16(17000), uint8(200))
	f.Add(uint8(3), uint8(3), uint8(2), uint8(0), int64(6), uint16(65000), uint16(65535), uint8(255))
	base := crossTable(f)
	var tabs []*Table
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers)
		f.Cleanup(p.Close)
		tabs = append(tabs, onPool(f, base, p))
	}
	f.Fuzz(func(t *testing.T, row, col, bins, pool uint8, seed int64, lo, hi uint16, density uint8) {
		tab := tabs[int(pool)%len(tabs)]
		from, to := int(lo)*crossRows/65536, int(hi)*crossRows/65536+1
		rng := rand.New(rand.NewSource(seed))
		keep := make([]bool, crossRows)
		for r := from; r < to && r < crossRows; r++ {
			keep[r] = rng.Intn(255) < int(density)
		}
		v := View{table: tab, sel: selectRows(tab, func(r int) bool { return keep[r] })}
		ctx := fmt.Sprintf("pool %d, rows [%d, %d) at density %d/255", tab.execPool().Workers(), from, to, density)
		requireCrossMatchesOracle(t, ctx, v, crossAxes[int(row)%len(crossAxes)], crossAxes[int(col)%len(crossAxes)], 1+int(bins)%64)
	})
}

// TestReduceIntsBoundedMemory crosses a 1,024-value column with a numeric one
// cut into 293 bins over 300k rows (19 morsels): the reduction holds one
// accumulator per pool participant, not one per morsel, whether 293 rows or
// every row is selected.
func TestReduceIntsBoundedMemory(t *testing.T) {
	const rows, values, bins = 300_000, 1024, 293
	rng := rand.New(rand.NewSource(4103))
	names := make([]string, values)
	for i := range names {
		names[i] = fmt.Sprintf("v%04d", i)
	}
	cats, nums := make([]string, rows), make([]float64, rows)
	for i := range cats {
		cats[i] = names[(i+rng.Intn(values))%values]
		nums[i] = rng.NormFloat64()
	}
	base, err := NewTable(NewCategoricalColumn("cat", cats), NewFloatColumn("num", nums))
	if err != nil {
		t.Fatal(err)
	}
	few := map[int]bool{}
	for len(few) < bins {
		few[rng.Intn(rows)] = true
	}
	sels := map[string]*Selection{
		"293 rows": selectRows(base, func(row int) bool { return few[row] }),
		"all rows": selectRows(base, func(int) bool { return true }),
	}
	const cells, slack = values * bins, 64 << 10
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers)
		tab := onPool(t, base, p)
		for name, sel := range sels {
			v := View{table: tab, sel: sel}
			if _, err := v.CrossCounts("cat", "num", bins); err != nil { // fill the binning memo
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ct, err := v.CrossCounts("cat", "num", bins)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, r := range ct.Counts {
				for _, n := range r {
					total += n
				}
			}
			if total != sel.Count() {
				t.Fatalf("pool %d, %s: the cross-tab counts %d rows, want %d", workers, name, total, sel.Count())
			}
			bound := uint64((workers+1)*cells*8 + slack)
			if got := after.TotalAlloc - before.TotalAlloc; got > bound {
				t.Errorf("pool %d, %s: a %d×%d cross-tab allocated %d bytes, bound %d", workers, name, values, bins, got, bound)
			}
		}
		p.Close()
	}
}
