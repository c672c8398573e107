package dataset_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"aware/internal/census"
	"aware/internal/dataset"
)

// The TestAllocs tests pin allocation counts the way internal/core's do: the
// count measured when the pin was set plus 20 %, rounded up, on a 20k-row
// census over a one-worker pool, skipped under -race.

var allocsFilter = dataset.And{Terms: []dataset.Predicate{
	dataset.Equals{Column: census.ColSalaryOver50K, Value: "true"},
	dataset.Range{Column: census.ColAge, Low: 30, High: 50},
}}

func allocsCensus(t *testing.T, rows int) *dataset.Table {
	t.Helper()
	if dataset.RaceEnabled {
		t.Skip("allocation counts are pinned without -race")
	}
	table, err := census.Generate(census.Config{Rows: rows, Seed: 1, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	pool := dataset.NewPool(1)
	t.Cleanup(pool.Close)
	table.SetPool(pool)
	return table
}

func pinAllocs(t *testing.T, op string, pin float64, fn func()) {
	t.Helper()
	if got := testing.AllocsPerRun(20, fn); got > pin {
		t.Errorf("%s allocates %v objects per call, pinned at %v", op, got, pin)
	}
}

// TestAllocsOpenSnapshot pins the awared -data restart path. Mapping a
// snapshot allocates per column, not per row.
func TestAllocsOpenSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "census.aware")
	if err := allocsCensus(t, 20000).Snapshot(path); err != nil {
		t.Fatal(err)
	}
	pinAllocs(t, "OpenSnapshot + Close", 84, func() { // measured 78
		tab, err := dataset.OpenSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		tab.Close()
	})
}

// TestAllocsArenaWhere pins a served filter step in steady state: compile
// through the table's word arena, count the target, release the selection.
// The bitmap words recycle, so what is left is per call, not per row.
func TestAllocsArenaWhere(t *testing.T) {
	table := allocsCensus(t, 20000)
	table.SetArena(dataset.NewWordArena(table.NumRows()))
	cats, err := table.Categories(census.ColGender)
	if err != nil {
		t.Fatal(err)
	}
	pinAllocs(t, "arena Where + CountsFor", 12, func() { // measured 10
		sel, err := table.Where(allocsFilter)
		if err != nil {
			t.Fatal(err)
		}
		view, err := dataset.NewView(table, sel)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := view.CountsFor(census.ColGender, cats); err != nil {
			t.Fatal(err)
		}
		sel.Release()
	})
}

// TestAllocsSelectionCache pins a session's cache: building one over a table
// and asking it for every row allocates the cache and its map, not a
// full-row bitmap — that is built once per table and shared.
func TestAllocsSelectionCache(t *testing.T) {
	table := allocsCensus(t, 20000)
	full, err := dataset.NewSelectionCacheCap(table, 1).Where(nil)
	if err != nil {
		t.Fatal(err)
	}
	pinAllocs(t, "NewSelectionCacheCap + Where(nil)", 3, func() { // measured 2
		sel, err := dataset.NewSelectionCacheCap(table, 1).Where(nil)
		if err != nil {
			t.Fatal(err)
		}
		if sel != full {
			t.Fatal("a second cache over the table built its own full selection")
		}
	})
}

// occupationDim is the relational workload's dimension: the census
// occupations padded to 120 rows, each with a sector and a median pay.
func occupationDim(tb testing.TB) dataset.View {
	tb.Helper()
	occupations := append([]string(nil), census.Occupations...)
	for i := len(occupations); i < 120; i++ {
		occupations = append(occupations, fmt.Sprintf("Role-%03d", i))
	}
	sectors := make([]string, len(occupations))
	pay := make([]float64, len(occupations))
	for i := range occupations {
		sectors[i] = fmt.Sprintf("sector-%d", i%6)
		pay[i] = 30000 + float64(i%12)*5500
	}
	dim, err := dataset.NewTable(
		dataset.NewCategoricalColumn("occupation", occupations),
		dataset.NewCategoricalColumn("sector", sectors),
		dataset.NewFloatColumn("median_pay", pay),
	)
	if err != nil {
		tb.Fatal(err)
	}
	view, err := dim.View(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return view
}

// joinOccupations runs a JoinDataset step's kernel: the census view joined to
// the occupation dimension.
func joinOccupations(tb testing.TB, left, right dataset.View) *dataset.Table {
	joined, err := dataset.HashJoin(left, right, census.ColOccupation, "occupation", "dim_")
	if err != nil {
		tb.Fatal(err)
	}
	return joined
}

// TestAllocsHashJoin pins the join of a filtered census view to the
// occupation dimension, which gathers the selected census rows and draws the
// dimension's columns through their occupation codes. The count does not
// grow with the fact side's rows.
func TestAllocsHashJoin(t *testing.T) {
	left, err := allocsCensus(t, 30000).View(allocsFilter)
	if err != nil {
		t.Fatal(err)
	}
	right := occupationDim(t)
	pinAllocs(t, "HashJoin", 80, func() { joinOccupations(t, left, right) }) // measured 72
}

// TestAllocsHashJoinDimension pins the join of the full census view to the
// occupation dimension: every census row matches one occupation, so the
// result shares the census columns and draws the dimension's through the
// occupation codes. The count is the same at two fact-side sizes.
func TestAllocsHashJoinDimension(t *testing.T) {
	right := occupationDim(t)
	var counts []float64
	for _, rows := range []int{30000, 90000} {
		left, err := allocsCensus(t, rows).View(nil)
		if err != nil {
			t.Fatal(err)
		}
		age, err := left.Table().Column(census.ColAge)
		if err != nil {
			t.Fatal(err)
		}
		if joined := joinOccupations(t, left, right); joined.NumRows() != rows {
			t.Fatalf("%d census rows joined into %d", rows, joined.NumRows())
		} else if joinedAge, _ := joined.Column(census.ColAge); joinedAge != age {
			t.Fatalf("the join of the full census view gathered its columns")
		}
		pinAllocs(t, "HashJoin (dimension)", 52, func() { joinOccupations(t, left, right) }) // measured 47
		counts = append(counts, testing.AllocsPerRun(5, func() { joinOccupations(t, left, right) }))
	}
	if counts[0] != counts[1] {
		t.Errorf("HashJoin (dimension) allocates %v objects at 30k rows and %v at 90k", counts[0], counts[1])
	}
}

// hoursBand is the relational workload's derived column: hours per week
// bucketed by 10, a function of one byte-coded column.
var hoursBand = dataset.Bucket{Arg: dataset.Col{Name: census.ColHoursPerWeek}, Width: 10}

// TestAllocsDerive pins a DeriveColumn step's kernel over the census: the
// bucket is evaluated once per value of the hours column and its codes mapped
// in one pass, so the count is the same at two table sizes.
func TestAllocsDerive(t *testing.T) {
	var counts []float64
	for _, rows := range []int{20000, 60000} {
		table := allocsCensus(t, rows)
		derive := func() {
			if _, err := table.Derive("hours_band", hoursBand); err != nil {
				t.Fatal(err)
			}
		}
		pinAllocs(t, "Derive", 36, derive) // measured 31
		counts = append(counts, testing.AllocsPerRun(5, derive))
	}
	if counts[0] != counts[1] {
		t.Errorf("Derive allocates %v objects at 20k rows and %v at 60k", counts[0], counts[1])
	}
}

// BenchmarkDerive times a DeriveColumn step's kernel at the relational
// workload's scale, 300k census rows, on the default pool.
func BenchmarkDerive(b *testing.B) {
	table, err := census.Generate(census.Config{Rows: 300_000, Seed: 1, SignalStrength: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := table.Derive("hours_band", hoursBand); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashJoin times a JoinDataset step's kernel at the relational
// workload's scale, 300k census rows joined to the 120-row occupation
// dimension, on the default pool: the full view (the left columns are shared)
// and a filtered one (the selected left rows gathered).
func BenchmarkHashJoin(b *testing.B) {
	table, err := census.Generate(census.Config{Rows: 300_000, Seed: 1, SignalStrength: 1})
	if err != nil {
		b.Fatal(err)
	}
	right := occupationDim(b)
	for _, bc := range []struct {
		name   string
		filter dataset.Predicate
	}{{"full", nil}, {"filtered", allocsFilter}} {
		left, err := table.View(bc.filter)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				joinOccupations(b, left, right)
			}
		})
	}
}

// BenchmarkCrossCounts times a group-by step's kernel at the relational
// workload's scale: 300k census rows under a filter selecting about a tenth
// of them, crossing two categorical attributes and a binned numeric one
// with a bool. Run it with -cpu 1 to time the kernel on one worker.
func BenchmarkCrossCounts(b *testing.B) {
	table, err := census.Generate(census.Config{Rows: 300_000, Seed: 1, SignalStrength: 1})
	if err != nil {
		b.Fatal(err)
	}
	view, err := table.View(allocsFilter)
	if err != nil {
		b.Fatal(err)
	}
	for _, axes := range [][2]string{{census.ColOccupation, census.ColMaritalStatus}, {census.ColHoursPerWeek, census.ColSalaryOver50K}} {
		b.Run(axes[0]+"×"+axes[1], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := view.CrossCounts(axes[0], axes[1], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
