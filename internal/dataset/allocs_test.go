package dataset_test

import (
	"fmt"
	"path/filepath"
	"runtime"
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

// bytesPerRun is testing.AllocsPerRun counting bytes: the heap bytes one call
// of fn allocates, averaged over runs calls after a warm-up call, on one
// processor.
func bytesPerRun(runs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// pinScaleFree requires fn, run at each of two table sizes, to allocate the
// same objects and the same bytes at both: a step that writes per row fails.
func pinScaleFree(t *testing.T, op string, rows [2]int, fn [2]func()) {
	t.Helper()
	var objects [2]float64
	var bytes [2]uint64
	for i := range fn {
		objects[i], bytes[i] = testing.AllocsPerRun(5, fn[i]), bytesPerRun(5, fn[i])
	}
	if objects[0] != objects[1] || bytes[0] != bytes[1] {
		t.Errorf("%s allocates %v objects, %d B at %d rows and %v objects, %d B at %d", op, objects[0], bytes[0], rows[0], objects[1], bytes[1], rows[1])
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

// TestAllocsPlaneCount pins a warm count by bit planes (gender, occupation
// and education: 2 to 8 codes each) over a filtered view to what the scan it
// replaces allocated: 3 objects per CountsFor (the result, the accumulator
// and the morsel closure), measured on the scan before the planes. The first
// count builds the planes and is not timed.
func TestAllocsPlaneCount(t *testing.T) {
	table := allocsCensus(t, 20000)
	view, err := table.View(allocsFilter)
	if err != nil {
		t.Fatal(err)
	}
	for _, column := range []string{census.ColGender, census.ColOccupation, census.ColEducation} {
		cats, err := table.Categories(column)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := view.CountsFor(column, cats); err != nil {
			t.Fatal(err)
		}
		pinAllocs(t, "warm plane CountsFor of "+column, 3, func() { // measured 3
			if _, err := view.CountsFor(column, cats); err != nil {
				t.Fatal(err)
			}
		})
	}
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
// occupation dimension, which gathers the selected census rows and maps the
// dimension's columns over their occupation codes. The count does not grow
// with the fact side's rows.
func TestAllocsHashJoin(t *testing.T) {
	left, err := allocsCensus(t, 30000).View(allocsFilter)
	if err != nil {
		t.Fatal(err)
	}
	right := occupationDim(t)
	pinAllocs(t, "HashJoin", 78, func() { joinOccupations(t, left, right) }) // measured 65
}

// TestAllocsHashJoinDimension pins the join of the full census view to the
// occupation dimension: every census row matches one occupation, so the
// result shares the census columns and maps the dimension's over the
// occupation codes. The objects and bytes are the same at two fact-side
// sizes: nothing is written per row.
func TestAllocsHashJoinDimension(t *testing.T) {
	right := occupationDim(t)
	sizes := [2]int{30000, 90000}
	var joins [2]func()
	for i, rows := range sizes {
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
		joins[i] = func() { joinOccupations(t, left, right) }
		pinAllocs(t, "HashJoin (dimension)", 50, joins[i]) // measured 41
	}
	pinScaleFree(t, "HashJoin (dimension)", sizes, joins)
}

// hoursBand is the relational workload's derived column: hours per week
// bucketed by 10, a function of one byte-coded column.
var hoursBand = dataset.Bucket{Arg: dataset.Col{Name: census.ColHoursPerWeek}, Width: 10}

// TestAllocsDerive pins a DeriveColumn step's kernel over the census: the
// bucket is evaluated once per value of the hours column and the column
// mapped over the hours codes, so the objects and bytes are the same at two
// table sizes: nothing is written per row. The smaller table is the first
// rows of the larger, so the hours dictionary, which sizes the per-value
// work, is the same at both.
func TestAllocsDerive(t *testing.T) {
	sizes := [2]int{20000, 60000}
	full := allocsCensus(t, sizes[1])
	head := make([]int, sizes[0])
	for i := range head {
		head[i] = i
	}
	first, err := full.Select(head)
	if err != nil {
		t.Fatal(err)
	}
	var derives [2]func()
	for i, table := range []*dataset.Table{first, full} {
		derives[i] = func() {
			if _, err := table.Derive("hours_band", hoursBand); err != nil {
				t.Fatal(err)
			}
		}
		pinAllocs(t, "Derive", 36, derives[i]) // measured 32
	}
	pinScaleFree(t, "Derive", sizes, derives)
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
// and a filtered one (the selected left rows gathered); the dimension's
// columns are mapped over the occupation codes either way.
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
