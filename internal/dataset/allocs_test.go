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
	pinAllocs(t, "OpenSnapshot + Close", 84, func() { // measured 70
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

// TestAllocsHashJoin pins a JoinDataset step's kernel: a filtered census view
// joined to a 120-row occupation catalog. The count does not grow with the
// fact side's rows.
func TestAllocsHashJoin(t *testing.T) {
	table := allocsCensus(t, 30000)
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
		t.Fatal(err)
	}
	left, err := table.View(allocsFilter)
	if err != nil {
		t.Fatal(err)
	}
	right, err := dim.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	pinAllocs(t, "HashJoin", 230, func() { // measured 191
		if _, err := dataset.HashJoin(left, right, census.ColOccupation, "occupation", "dim_"); err != nil {
			t.Fatal(err)
		}
	})
}
